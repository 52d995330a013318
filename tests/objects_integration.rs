//! Integration tests for the derived wait-free objects and the universal
//! construction (§1.4): the consensus building block must carry its
//! guarantees up through every layer.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tfr::core::consensus::NativeConsensus;
use tfr::core::derived::{LeaderElection, Renaming, SetConsensus, TestAndSet};
use tfr::core::election_spec::ElectionSpec;
use tfr::core::universal::{
    CommittedBatch, Counter, FifoQueue, MultiConsensus, Sequential, Universal,
};
use tfr::modelcheck::{Explorer, SafetySpec};
use tfr::registers::chaos::{self, points, ChaosSession, Fault, FaultAction, PointObserver};
use tfr::registers::space::{NativeSpace, RegisterSpace};
use tfr::registers::{ProcId, Ticks};

const D: Duration = Duration::from_micros(3);

#[test]
fn multivalued_one_bit_and_wide_values() {
    let narrow = MultiConsensus::new(2, 1, D);
    assert_eq!(narrow.propose(ProcId(0), 1), 1);
    assert_eq!(narrow.propose(ProcId(1), 0), 1);

    let wide = MultiConsensus::new(2, 63, D);
    let big = (1u64 << 63) - 1;
    assert_eq!(wide.propose(ProcId(0), big), big);
    assert_eq!(wide.decision(), Some(big));
}

#[test]
fn multivalued_stress_many_widths() {
    for width in [2u32, 5, 9, 17, 33] {
        let n = 5;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let mc = Arc::new(MultiConsensus::new(n, width, D));
        let inputs: Vec<u64> = (0..n).map(|i| (i as u64 * 0x9E37_79B9) & mask).collect();
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let mc = Arc::clone(&mc);
                std::thread::spawn(move || mc.propose(ProcId(i), v))
            })
            .collect();
        let outs: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "width={width}");
        assert!(inputs.contains(&outs[0]), "width={width}: validity");
    }
}

/// A space that tapes every access as `(is_write, index)`.
#[derive(Default)]
struct Taped {
    cells: NativeSpace,
    tape: Mutex<Vec<(bool, u64)>>,
}

impl Taped {
    fn tape(&self) -> Vec<(bool, u64)> {
        self.tape.lock().unwrap().clone()
    }
}

impl RegisterSpace for Taped {
    fn read(&self, index: u64) -> u64 {
        self.tape.lock().unwrap().push((false, index));
        self.cells.read(index)
    }
    fn write(&self, index: u64, value: u64) {
        self.tape.lock().unwrap().push((true, index));
        self.cells.write(index, value)
    }
}

#[test]
fn multivalued_solo_propose_costs_three_plus_six_per_pid_bit() {
    // Read the standing announcement, announce, 6 per pid bit (the solo
    // fast path of Algorithm 1, the top bit's first read being the probe
    // of `decide` before the announcement), write `result` — whatever the
    // value width. A delay would take the whole Δ, so a solo run well
    // inside it ran none.
    let long = Duration::from_secs(2);
    for (n, bits) in [(1usize, 1), (2, 1), (3, 2), (4, 2), (5, 3), (255, 8)] {
        let space = Arc::new(Taped::default());
        let mc = MultiConsensus::on(Arc::clone(&space), n, 63, long);
        let start = Instant::now();
        assert_eq!(mc.propose(ProcId(n - 1), (1 << 62) + 5), (1 << 62) + 5);
        assert!(start.elapsed() < long, "n={n}: a solo propose delayed");
        assert_eq!(space.tape().len(), 3 + 6 * bits, "n={n}");
    }
}

/// The election the native `MultiConsensus` runs, proven at n = 2:
/// agreement on a participant over every interleaving, with no bound hit,
/// and no reachable state with two different values written or pending at
/// a register whose writes are labelled agreed (`result` and `decide`) —
/// for each process sending instance 0's `decide` and `result` in either
/// order. Tier-1's copy of `tfr-core`'s
/// `election_spec::tests::modelcheck_two_process_election_exhaustive`.
#[test]
fn two_process_election_spec_is_proven_safe() {
    for mask in 0..4 {
        let spec = ElectionSpec::new(2, 0, Ticks(100))
            .inner_rounds(2)
            .result_first(mask);
        let report = Explorer::new(spec, 2).check(&SafetySpec::consensus(vec![0, 1]));
        assert!(report.proven_safe(), "mask {mask}: {:?}", report.violation);
        assert!(report.states_explored > 50);
    }
}

/// Tapes the injection points the calling thread visits.
struct PointTape {
    thread: std::thread::ThreadId,
    points: Mutex<Vec<&'static str>>,
}

impl PointObserver for PointTape {
    fn point_hit(&self, _pid: ProcId, point: &'static str) {
        if std::thread::current().id() == self.thread {
            self.points.lock().unwrap().push(point);
        }
    }
    fn fault_fired(&self, _: ProcId, _: &'static str, _: Duration, _: bool) {}
}

/// The injection points `f` visits, run as `pid`.
fn points_of(pid: ProcId, f: impl FnOnce()) -> Vec<&'static str> {
    let tape = Arc::new(PointTape {
        thread: std::thread::current().id(),
        points: Mutex::new(Vec::new()),
    });
    let _observer = chaos::install_point_observer(tape.clone());
    chaos::run_as(pid, f).completed().expect("no fault fires");
    let points = tape.points.lock().unwrap().clone();
    points
}

/// The order of injection points that the nemesis and the crash tests
/// count: a solo Algorithm 1 round; one per pid bit of a solo
/// multivalued proposal, the first `consensus.round` the probe's; and a
/// proposer that adopts another pid's value, its top instance decided
/// already. Tier-1's copy of `tfr-core`'s
/// `driver::tests::the_injection_point_tapes_are_the_native_bodies`.
#[test]
fn injection_point_tapes_are_the_native_bodies() {
    use points::{ARRAY_LOAD as LOAD, ARRAY_STORE as STORE};
    use points::{CONSENSUS_DECIDE as DECIDE, CONSENSUS_ROUND as ROUND};
    let round = [ROUND, STORE, LOAD, STORE, LOAD, DECIDE];
    let session = ChaosSession::install(&[]);
    let c = NativeConsensus::new(D);
    assert_eq!(points_of(ProcId(0), || assert!(c.propose(true))), round);
    for (n, bits) in [(1usize, 1), (4, 2)] {
        let mc = MultiConsensus::new(n, 8, D);
        let tape = points_of(ProcId(n - 1), || {
            assert_eq!(mc.propose(ProcId(n - 1), 7), 7)
        });
        assert_eq!(tape, round.repeat(bits), "n={n}");
    }
    drop(session);
    // p1 decides pid bit 1 and crashes at the top of bit 0's instance; p2
    // finds bit 1 decided against it, adopts p1, and decides bit 0.
    let mc = MultiConsensus::new(4, 8, D);
    let _session = ChaosSession::install(&[crash_after_first_pid_bit()]);
    let crashed = chaos::run_as(ProcId(1), || mc.propose(ProcId(1), 5));
    assert!(crashed.recoverable_after().is_some());
    let tape = points_of(ProcId(2), || assert_eq!(mc.propose(ProcId(2), 9), 5));
    assert_eq!(tape, [&[ROUND][..], &round].concat());
}

#[test]
fn multivalued_agreement_where_pid_prefixes_name_no_process() {
    // n = 3, 5, 6 are not powers of two: some pid prefixes name no
    // process. Eight threads per trial: the n proposers, and readers that
    // return the first decision `result` shows them.
    for n in [3usize, 5, 6] {
        for trial in 0..20u64 {
            let mc = MultiConsensus::new(n, 12, D);
            let inputs: Vec<u64> = (0..n as u64)
                .map(|i| (i * 1031 + trial * 7) % 4096)
                .collect();
            let outs: Vec<u64> = std::thread::scope(|s| {
                let mc = &mc;
                let readers: Vec<_> = (n..8)
                    .map(|_| {
                        s.spawn(move || loop {
                            match mc.decision() {
                                Some(d) => return d,
                                None => std::thread::yield_now(),
                            }
                        })
                    })
                    .collect();
                let proposers: Vec<_> = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| s.spawn(move || mc.propose(ProcId(i), v)))
                    .collect();
                proposers
                    .into_iter()
                    .chain(readers)
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            assert!(outs.windows(2).all(|w| w[0] == w[1]), "n={n}: {outs:?}");
            assert!(inputs.contains(&outs[0]), "n={n}: decided a non-input");
        }
    }
}

/// p1 (of n = 4, two pid bits) decides pid bit 1 and crashes recoverably
/// at the top of its second Algorithm 1 instance: visit 1 of
/// `consensus.round` is the first instance's one loop check, which takes
/// the probed `decide` and, deciding, returns without another.
fn crash_after_first_pid_bit() -> Fault {
    Fault {
        pid: ProcId(1),
        point: points::CONSENSUS_ROUND,
        nth: 2,
        action: FaultAction::CrashRecover(Duration::ZERO),
    }
}

/// Whether `tape`'s last access is the decisive one of a `MultiConsensus`
/// among 4 whose cell `i` is parent index `at(i)`: pid bit 1's `decide`
/// written, and nothing of pid bit 0's instance touched — the crash of
/// [`crash_after_first_pid_bit`] landed at the top of the second
/// instance.
fn crashed_at_the_second_instance(tape: &[(bool, u64)], at: impl Fn(u64) -> u64) -> bool {
    let decide_of_bit_1 = at(native_index(4, 2, 1, 0));
    let bit_0: Vec<u64> = (0..12).map(|reg| at(native_index(4, 2, 0, reg))).collect();
    tape.last() == Some(&(true, decide_of_bit_1)) && tape.iter().all(|(_, i)| !bit_0.contains(i))
}

/// The native index of register `reg` of pid bit `k`'s instance among
/// `n` processes with `w` pid bits: `result` at 0, `announce[i]` at
/// `1 + i`, then the `w` instances interleaved with stride `w`.
fn native_index(n: u64, w: u64, k: u64, reg: u64) -> u64 {
    1 + n + k + reg * w
}

#[test]
fn multivalued_recovered_incarnation_proposes_the_standing_value() {
    // With value bits this schedule panicked: the new incarnation
    // overwrote announce[1] with v2, so at bit 6 (decided 0 under v1's
    // prefix 0b10) `adopt` found no announced value with that prefix and
    // hit its `unreachable!`.
    let (v1, v2, v_early, v_late) = (0b1000_0000, 0b1111_1111, 0b0000_0001, 0b0000_0011);
    let space = Arc::new(Taped::default());
    let mc = MultiConsensus::on(Arc::clone(&space), 4, 8, D);
    let _session = ChaosSession::install(&[crash_after_first_pid_bit()]);
    let first = chaos::run_as(ProcId(1), || mc.propose(ProcId(1), v1));
    assert!(first.recoverable_after().is_some(), "p1 crashed");
    assert!(crashed_at_the_second_instance(&space.tape(), |i| i));
    assert_eq!(mc.decision(), None, "p1 crashed before writing result");
    // p2 runs alone and finishes before p1 comes back.
    assert_eq!(mc.propose(ProcId(2), v_early), v1);
    // p1's next incarnation proposes a new value while p3 proposes.
    let (again, late) = std::thread::scope(|s| {
        let mc = &mc;
        let again = s.spawn(move || chaos::run_as(ProcId(1), || mc.propose(ProcId(1), v2)));
        let late = s.spawn(move || mc.propose(ProcId(3), v_late));
        (again.join().unwrap(), late.join().unwrap())
    });
    assert_eq!(again.completed(), Some(v1), "the first announcement stands");
    assert_eq!(late, v1);
    assert_eq!(mc.decision(), Some(v1));
}

#[test]
fn universal_recovered_session_commits_its_predecessors_batch() {
    // With value bits the slot decided a packed (pid, offset): the new
    // incarnation's proposal, offset 3, won the bits its predecessor had
    // left, so the new batch committed and the predecessor's was
    // orphaned; a crash further down the 32 bits, inside the offset, made
    // `adopt` hit its `unreachable!`.
    let space = Arc::new(Taped::default());
    let obj = Universal::on(Arc::clone(&space), Counter, 4, 8, D);
    let _session = ChaosSession::install(&[crash_after_first_pid_bit()]);
    let crashed = chaos::run_as(ProcId(1), || {
        let mut s = obj.session(ProcId(1));
        s.announce_burst(&[10, 20]);
        s.drive_pending();
    });
    assert!(crashed.recoverable_after().is_some(), "p1 crashed");
    // Slot 0's consensus cell `i` of an 8-slot object: `3·(8i + 0) + 2`
    // (layout documented on `Universal`).
    assert!(crashed_at_the_second_instance(&space.tape(), |i| {
        3 * (8 * i) + 2
    }));
    assert_eq!(obj.audit().slots_decided, 0);
    // The new incarnation reads counter 2 and arena mark 3, publishes both
    // ops again as a batch at offset 3 and proposes it.
    let (responses, commits) = chaos::run_as(ProcId(1), || {
        let mut s = obj.session(ProcId(1));
        s.drive_pending();
        let responses: Vec<_> = s.take_responses().collect();
        (responses, s.take_commits().collect::<Vec<_>>())
    })
    .completed()
    .expect("the crash is one-shot");
    assert_eq!(responses, vec![(0, 10), (1, 30)], "each op applied once");
    assert_eq!(
        commits,
        vec![CommittedBatch {
            slot: 0,
            proposer: ProcId(1),
            offset: 0,
            size: 2
        }],
        "slot 0 commits the predecessor's batch; the one at offset 3 is orphaned"
    );
    assert_eq!(obj.invoke(ProcId(2), 5), 35);
    let audit = obj.audit();
    assert!(audit.complete(), "{audit:?}");
    assert_eq!(audit.committed, vec![0, 2, 1, 0]);
    assert_eq!(audit.batch_sizes, vec![2, 1]);
    assert_eq!(obj.snapshot(), 35);
}

#[test]
fn election_partial_participation_any_subset() {
    // Whatever subset participates, they agree on a member of the subset.
    for subset in [
        vec![0usize],
        vec![3],
        vec![0, 5],
        vec![1, 2, 4],
        vec![0, 1, 2, 3, 4, 5],
    ] {
        let e = Arc::new(LeaderElection::new(6, D));
        let handles: Vec<_> = subset
            .iter()
            .map(|&i| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || e.elect(ProcId(i)))
            })
            .collect();
        let leaders: Vec<ProcId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            leaders.windows(2).all(|w| w[0] == w[1]),
            "subset {subset:?}"
        );
        assert!(
            subset.contains(&leaders[0].0),
            "leader must participate: {subset:?}"
        );
    }
}

#[test]
fn test_and_set_sequential_semantics() {
    let t = TestAndSet::new(3, D);
    assert!(!t.test_and_set(ProcId(1)), "first caller wins");
    assert!(t.test_and_set(ProcId(0)), "second caller loses");
    assert!(t.test_and_set(ProcId(2)), "third caller loses");
}

#[test]
fn renaming_is_order_oblivious() {
    // Sequential participation in descending pid order still yields
    // distinct names starting from 0.
    let r = Renaming::new(4, D);
    let n3 = r.rename(ProcId(3));
    let n2 = r.rename(ProcId(2));
    let n1 = r.rename(ProcId(1));
    let n0 = r.rename(ProcId(0));
    let names: HashSet<usize> = [n0, n1, n2, n3].into_iter().collect();
    assert_eq!(names.len(), 4);
    assert_eq!(n3, 0, "first arrival takes the first slot");
}

#[test]
fn set_consensus_respects_group_validity() {
    let s = SetConsensus::new(3, D);
    // Solo proposer in its group decides its own value.
    assert!(s.propose(ProcId(0), true));
    assert!(!s.propose(ProcId(1), false));
    // Same group as p0 (3 groups, pid 3 → group 0): adopts p0's decision.
    assert!(s.propose(ProcId(3), false));
}

/// A sequential register with read/write ops, used to check the universal
/// construction against a custom user-defined object.
#[derive(Debug, Clone, Copy, Default)]
struct RegObject;

impl RegObject {
    fn write_op(v: u32) -> u64 {
        ((v as u64) << 1) | 1
    }
    const READ: u64 = 0;
}

impl Sequential for RegObject {
    type State = u64;
    fn initial(&self) -> u64 {
        0
    }
    fn apply(&self, state: &mut u64, op: u64) -> u64 {
        if op & 1 == 1 {
            *state = op >> 1;
            0
        } else {
            *state
        }
    }
}

#[test]
fn universal_custom_object_reads_see_writes() {
    let obj = Universal::new(RegObject, 2, 16, D);
    obj.invoke(ProcId(0), RegObject::write_op(77));
    assert_eq!(obj.invoke(ProcId(1), RegObject::READ), 77);
    obj.invoke(ProcId(1), RegObject::write_op(5));
    assert_eq!(obj.invoke(ProcId(0), RegObject::READ), 5);
    assert_eq!(obj.snapshot(), 5);
}

#[test]
fn universal_counter_helping_under_asymmetric_load() {
    // One thread does many ops, another few: the helping rule must let
    // both finish (wait-freedom) with an exact total.
    let obj = Arc::new(Universal::new(Counter, 2, 40, D));
    let heavy = {
        let obj = Arc::clone(&obj);
        std::thread::spawn(move || {
            for _ in 0..20 {
                obj.invoke(ProcId(0), 1);
            }
        })
    };
    let light = {
        let obj = Arc::clone(&obj);
        std::thread::spawn(move || obj.invoke(ProcId(1), 100))
    };
    heavy.join().unwrap();
    let light_resp = light.join().unwrap();
    assert!(
        light_resp >= 100,
        "light op linearized somewhere: {light_resp}"
    );
    assert_eq!(obj.snapshot(), 120);
}

#[test]
fn universal_queue_interleaved_enq_deq() {
    // Generous capacity: every empty dequeue also consumes a log slot.
    let obj = Arc::new(Universal::new(FifoQueue, 2, 2_000, D));
    let producing = Arc::new(AtomicBool::new(true));
    let producer = {
        let (obj, producing) = (Arc::clone(&obj), Arc::clone(&producing));
        std::thread::spawn(move || {
            for k in 0..10u32 {
                obj.invoke(ProcId(0), FifoQueue::enqueue_op(k));
            }
            producing.store(false, Ordering::SeqCst);
        })
    };
    let consumer = {
        let obj = Arc::clone(&obj);
        std::thread::spawn(move || {
            let mut got = Vec::new();
            let mut misses = 0;
            while got.len() < 10 && misses < 200 {
                match FifoQueue::decode_dequeue(obj.invoke(ProcId(1), FifoQueue::DEQUEUE)) {
                    Some(v) => got.push(v),
                    // A descheduled producer is not a lost enqueue: only
                    // misses after it finished count, and until then the
                    // consumer backs off instead of spending log slots.
                    None if producing.load(Ordering::SeqCst) => {
                        std::thread::sleep(Duration::from_micros(50))
                    }
                    None => misses += 1,
                }
            }
            got
        })
    };
    producer.join().unwrap();
    let got = consumer.join().unwrap();
    // FIFO per producer: the consumer sees 0..10 in order.
    assert_eq!(got, (0..10).collect::<Vec<u32>>());
}

#[test]
fn universal_queue_dequeue_on_empty() {
    let obj = Universal::new(FifoQueue, 2, 16, D);
    // Empty from the start: dequeues miss, and they are real operations —
    // they consume log slots and linearize against later enqueues.
    assert_eq!(
        FifoQueue::decode_dequeue(obj.invoke(ProcId(0), FifoQueue::DEQUEUE)),
        None
    );
    assert_eq!(
        FifoQueue::decode_dequeue(obj.invoke(ProcId(1), FifoQueue::DEQUEUE)),
        None
    );
    obj.invoke(ProcId(0), FifoQueue::enqueue_op(42));
    assert_eq!(
        FifoQueue::decode_dequeue(obj.invoke(ProcId(1), FifoQueue::DEQUEUE)),
        Some(42),
        "the earlier empty dequeues must not eat the later enqueue"
    );
    // Drained again: back to empty.
    assert_eq!(
        FifoQueue::decode_dequeue(obj.invoke(ProcId(0), FifoQueue::DEQUEUE)),
        None
    );
}

#[test]
#[should_panic(expected = "capacity exhausted")]
fn universal_queue_capacity_exhaustion_panics() {
    // Capacity counts *operations* (empty dequeues included), not queue
    // length: a capacity-3 queue admits exactly three invocations.
    let obj = Universal::new(FifoQueue, 1, 3, D);
    obj.invoke(ProcId(0), FifoQueue::enqueue_op(1));
    obj.invoke(ProcId(0), FifoQueue::DEQUEUE);
    obj.invoke(ProcId(0), FifoQueue::DEQUEUE); // empty, still a slot
    obj.invoke(ProcId(0), FifoQueue::enqueue_op(2)); // one too many
}

/// Tier-1's copy of `tfr-core`'s access-multiset unit tests: vectoring
/// changes rounds, not accesses, a winner applies its own batch without
/// reading it back, a session that opened with arena mark 0 does not
/// read a standing announcement, and Algorithm 1 reads `decide` once, in
/// the slot's probe, and not again after writing it. Process 0 of n ≤ 2 opens a session on a
/// fresh 4-slot object, announces k ops and drives them through slot `s`
/// alone; the cells it touches, with multiplicity, are exactly these
/// (runs go through `Taped`'s default loop, so they tape per cell). At
/// s = 0 that is all; at s = 1 (n = 2) slot 0 was decided for process 1's
/// published record, and process 0 first reads that record back: its
/// length, its entries and process 1's payloads. Layout (documented on
/// `Universal` and `MultiConsensus`): announce region cell `i` at `3i`,
/// arena `3i + 1`, slot `s`'s consensus cell `i` at `3·(4i + s) + 2`, and
/// the one pid bit's Algorithm 1 register `j` at consensus cell
/// `1 + n + j`.
#[test]
fn universal_decision_reads_back_only_records_it_did_not_write() {
    let announce = |i: u64| 3 * i;
    let arena = |i: u64| 3 * i + 1;
    let slot_cell = |s: u64, i: u64| 3 * (4 * i + s) + 2;
    // Process 1's ops on slot 0, before process 0 arrives, in the s = 1 case.
    let others = 3u64;
    for (n, s) in [(1u64, 0u64), (2, 0), (2, 1)] {
        for k in [1u64, 8] {
            let slot = |i: u64| slot_cell(s, i);
            let alg1 = |j: u64| slot(1 + n + j);
            let mut want = vec![
                (false, announce(0)), // session: own counter and mark
                (false, announce(1)),
                (true, announce(0)), // counter, record length, mark
                (true, arena(0)),
                (true, announce(1)),
                (false, slot(0)), // the probe: undecided, and `decide`
                (false, alg1(0)),
                (true, slot(1)), // announce (mark 0: no standing read)
                (true, slot(0)), // result
                (true, alg1(0)), // Algorithm 1's solo fast path, v = 0
                (false, alg1(3)),
                (true, alg1(3)),
                (true, alg1(4)),
                (false, alg1(5)),
            ];
            if n == 2 {
                want.push((false, announce(2))); // the other counter
            }
            for i in 0..k {
                want.extend([(true, announce(2 * n + i * n)), (true, arena((1 + i) * n))]);
            }
            if s == 1 {
                // Slot 0 decided (the probe reads its `decide` too);
                // process 1's record length, entries and payloads, read
                // back.
                want.extend([
                    (false, slot_cell(0, 0)),
                    (false, slot_cell(0, 1 + n)),
                    (false, arena(1)),
                ]);
                for i in 0..others {
                    want.extend([
                        (false, arena(1 + (1 + i) * n)),
                        (false, announce(2 * n + 1 + i * n)),
                    ]);
                }
            }
            let mut expected = BTreeMap::new();
            for cell in want {
                *expected.entry(cell).or_insert(0) += 1;
            }

            let space = Arc::new(Taped::default());
            let obj = Universal::on(Arc::clone(&space), Counter, n as usize, 4, D);
            if s == 1 {
                let mut other = obj.session(ProcId(1));
                other.announce_burst(&vec![2; others as usize]);
                other.drive_pending();
                space.tape.lock().unwrap().clear();
            }
            let mut session = obj.session(ProcId(0));
            session.announce_burst(&vec![1; k as usize]);
            session.drive_pending();
            let mut got = BTreeMap::new();
            for access in space.tape() {
                *got.entry(access).or_insert(0) += 1;
            }
            assert_eq!(got, expected, "n={n} s={s} k={k}");
        }
    }
}

#[test]
fn renaming_names_in_range_under_chaos_stalls() {
    use tfr::chaos::{random_schedule, ScheduleConfig};
    let delta = Duration::from_micros(20);
    let n = 4;
    for seed in [1u64, 2, 3] {
        // Stalls only (no crashes): every thread must finish, and the
        // names must still be distinct and inside 0..n.
        let mut cfg = ScheduleConfig::objects(n, delta);
        cfg.crash_prob = 0.0;
        let faults = random_schedule(seed, &cfg);
        assert!(faults
            .iter()
            .all(|f| matches!(f.action, FaultAction::Stall(_))));
        let _session = ChaosSession::install(&faults);
        let r = Arc::new(Renaming::new(n, delta));
        let names: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let r = Arc::clone(&r);
                    scope.spawn(move || chaos::run_as(ProcId(i), move || r.rename(ProcId(i))))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().completed().expect("stalls never kill"))
                .collect()
        });
        assert!(
            names.iter().all(|&name| name < n),
            "seed {seed}: name out of range: {names:?}"
        );
        let distinct: HashSet<usize> = names.iter().copied().collect();
        assert_eq!(distinct.len(), n, "seed {seed}: duplicate names: {names:?}");
    }
}

#[test]
fn renaming_single_stalled_straggler_gets_a_valid_name() {
    // A targeted stall on one participant mid-consensus: the others race
    // ahead; the straggler must still come back with an unused in-range
    // name (no name is ever reused, even when the taker was parked).
    use tfr::registers::chaos::points;
    let delta = Duration::from_micros(20);
    let n = 3;
    let faults = [Fault {
        pid: ProcId(0),
        point: points::CONSENSUS_ROUND,
        nth: 1,
        action: FaultAction::Stall(Duration::from_millis(1)),
    }];
    let _session = ChaosSession::install(&faults);
    let r = Arc::new(Renaming::new(n, delta));
    let names: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let r = Arc::clone(&r);
                scope.spawn(move || chaos::run_as(ProcId(i), move || r.rename(ProcId(i))))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap().completed().expect("stalls never kill"))
            .collect()
    });
    let distinct: HashSet<usize> = names.iter().copied().collect();
    assert_eq!(distinct.len(), n, "duplicate names: {names:?}");
    assert!(names.iter().all(|&name| name < n), "{names:?}");
}
