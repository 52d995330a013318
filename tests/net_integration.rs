//! Acceptance: the paper's algorithms run **unchanged** over the quorum
//! backend (`tfr-net`), under a seeded network fault schedule, with three
//! oracles watching — mutual exclusion, consensus agreement/validity, and
//! register-level linearizability of the ABD emulation itself — and the
//! universal construction's quorum cost is pinned in rounds, as is the
//! service's overlap of its busy shards' rounds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tfr::asynclock::RawLock;
use tfr::chaos::netfault::{apply_net_schedule, random_net_schedule};
use tfr::core::consensus::NativeConsensus;
use tfr::core::mutex::resilient::ResilientMutex;
use tfr::core::universal::{Counter, Universal};
use tfr::linearize::register::{RecordingSpace, RegisterModel};
use tfr::linearize::{check_history, Recorder};
use tfr::net::{NetConfig, Network, QuorumSpace};
use tfr::registers::space::{Access, RegisterSpace, RegisterSpaceExt, SubSpace, WriteKind};
use tfr::registers::ProcId;
use tfr::service::{ObjectService, ServiceConfig};
use tfr::telemetry::{with_pid, Trace, Tracer};

const LOCK_WORKERS: usize = 2;
const PROPOSERS: usize = 3;

#[test]
fn algorithms_survive_a_seeded_partition_schedule_over_quorum_registers() {
    let seed = 13; // drops + a minority cut + a client-isolating cut
    let mut cfg = NetConfig::new(LOCK_WORKERS + PROPOSERS, 5, seed);
    cfg.retransmit = Duration::from_micros(300);
    let net = Arc::new(Network::new(cfg));

    let recorder = Arc::new(Recorder::new(LOCK_WORKERS + PROPOSERS));
    let space = Arc::new(RecordingSpace::new(net.space(), Arc::clone(&recorder)));
    let delta = Duration::from_micros(500);
    let lock = Arc::new(ResilientMutex::standard_on(
        SubSpace::new(Arc::clone(&space), 0, 2),
        LOCK_WORKERS,
        delta,
    ));
    let consensus = Arc::new(NativeConsensus::on(
        SubSpace::new(Arc::clone(&space), 1, 2),
        delta,
    ));

    let schedule = random_net_schedule(seed, net.config());
    let control = net.control();
    let in_cs = Arc::new(AtomicU64::new(0));
    let max_in_cs = Arc::new(AtomicU64::new(0));

    let mut decisions = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| apply_net_schedule(&control, &schedule));
        for i in 0..LOCK_WORKERS {
            let (lock, in_cs, max_in_cs) = (
                Arc::clone(&lock),
                Arc::clone(&in_cs),
                Arc::clone(&max_in_cs),
            );
            s.spawn(move || {
                with_pid(ProcId(i), || {
                    for _ in 0..3 {
                        lock.lock(ProcId(i));
                        let now = in_cs.fetch_add(1, Ordering::SeqCst) + 1;
                        max_in_cs.fetch_max(now, Ordering::SeqCst);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                        lock.unlock(ProcId(i));
                    }
                })
            });
        }
        let proposer_handles: Vec<_> = (0..PROPOSERS)
            .map(|i| {
                let consensus = Arc::clone(&consensus);
                s.spawn(move || {
                    with_pid(ProcId(LOCK_WORKERS + i), || consensus.propose(i % 2 == 1))
                })
            })
            .collect();
        decisions = proposer_handles
            .into_iter()
            .map(|h| h.join().expect("proposer panicked"))
            .collect();
    });

    // Oracle 1: mutual exclusion, through every partition.
    assert_eq!(max_in_cs.load(Ordering::SeqCst), 1, "two threads in the CS");

    // Oracle 2: agreement and validity.
    assert!(decisions.windows(2).all(|w| w[0] == w[1]), "{decisions:?}");
    assert_eq!(consensus.decision(), Some(decisions[0]));

    // Oracle 3: the emulated registers linearize as atomic registers.
    assert_eq!(recorder.dropped(), 0, "history buffers overflowed");
    let history = recorder.history();
    assert!(!history.is_empty());
    check_history(&history, &RegisterModel)
        .expect("ABD registers must linearize under the partition schedule");
}

/// The network has no thread of its own: whichever client is waiting
/// delivers everybody's due messages. Two clients therefore pump each
/// other's quorum rounds all the time, and the registers must stay
/// atomic through it — first on disjoint registers, then both on one.
/// Tier-1's copy of `tfr-net`'s cross-pumping unit test, with the
/// Wing–Gong checker as the oracle.
#[test]
fn clients_delivering_each_others_messages_keep_registers_atomic() {
    const PAIRS: u64 = 700; // write + read: over 2 000 quorum rounds a thread
    const OPS_PER_THREAD: usize = 2 * 2 * PAIRS as usize; // two phases of pairs
    let net = Arc::new(Network::new(NetConfig::new(2, 3, 0xC405)));
    let recorder = Arc::new(Recorder::with_capacity(2, 2 * OPS_PER_THREAD));
    // One handle per thread: distinct writer ids, so equal timestamps on
    // the shared register are ordered by the `(ts, wid)` tie-break.
    let spaces = [0, 1].map(|_| RecordingSpace::new(net.space(), Arc::clone(&recorder)));
    for shared_register in [false, true] {
        std::thread::scope(|s| {
            for (t, space) in spaces.iter().enumerate() {
                s.spawn(move || {
                    with_pid(ProcId(t), || {
                        let t = t as u64;
                        let reg = if shared_register { 9 } else { t };
                        for k in 1..=PAIRS {
                            space.write(reg, t * 1_000_000 + k);
                            space.read(reg);
                        }
                    })
                });
            }
        });
    }
    // Unrecorded (no pid): the last committed write is one thread's last.
    assert_eq!(spaces[0].read(9) % 1_000_000, PAIRS);
    assert_eq!(recorder.dropped(), 0, "history buffers overflowed");
    let history = recorder.history();
    assert_eq!(history.len(), 2 * OPS_PER_THREAD);
    check_history(&history, &RegisterModel)
        .expect("cross-pumped ABD registers must linearize per register");
}

#[test]
fn the_same_lock_object_works_on_both_backends() {
    // `standard` (native atomics) and `standard_on` (quorum registers)
    // build the *same* generic type — only the space differs.
    let delta = Duration::from_micros(200);
    let native = ResilientMutex::standard(2, delta);
    let net = Arc::new(Network::new(NetConfig::new(2, 3, 1)));
    let quorum = ResilientMutex::standard_on(net.space(), 2, delta);

    for lock in [&native as &dyn RawLock, &quorum as &dyn RawLock] {
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));
    }
}

/// A three-replica network whose links all take 20 µs: every round
/// reaches every replica, so no read needs a write-back.
fn lockstep_net() -> Arc<Network> {
    let mut cfg = NetConfig::new(1, 3, 0x27);
    cfg.min_delay = Duration::from_micros(20);
    cfg.max_delay = cfg.min_delay;
    Arc::new(Network::new(cfg))
}

/// Tier-1's copy of `tfr-core`'s round-count unit test. Over
/// [`lockstep_net`], one solo decision at n = 1 opens exactly 7 quorum
/// rounds for every batch size: the payload run and then the counter (one
/// ordered group) with the next slot's probe of `result` and `decide`,
/// the record and the mark and then the slot's announcement (one ordered
/// group), and Algorithm 1's five — the agreed `x`, the conditional `y`
/// (query and store), the read of `x[1, v̄]`, and the agreed `decide`
/// grouped with the agreed `result`. The winner applies its own batch
/// without reading it back. With the two ordered pairs in rounds of their
/// own it opened 9; with every access its own round, 12; with the entry
/// read of `decide`, the loop check after deciding and `y`'s read apart
/// from its write, 15; with the three agreed writes queried too and the
/// standing read, 19; with every write queried and the read-back, 27;
/// before register runs, 6k + 23: 29, 71 and 407 here.
#[test]
fn a_solo_universal_decision_costs_7_quorum_rounds_at_any_batch_size() {
    for k in [1usize, 8, 64] {
        let net = lockstep_net();
        let control = net.control();
        let obj = Universal::on(
            Arc::new(net.space()),
            Counter,
            1,
            4,
            Duration::from_micros(5),
        );
        let mut session = obj.session(ProcId(0));
        let before = control.quorum_rounds();
        session.announce_burst(&vec![1; k]);
        session.drive_pending();
        assert_eq!(control.quorum_rounds() - before, 7, "k={k}");
        assert_eq!(session.take_responses().len(), k);
    }
}

/// Tier-1's copy of `tfr-core`'s standing-read pin: a session that opens
/// after a predecessor proposed reads its standing announcement at its
/// first proposal only, in one group with its record and mark. Once it
/// has replayed the predecessor's slot, its first decision opens 8
/// rounds over [`lockstep_net`], its next 7.
#[test]
fn a_recovered_session_pays_the_standing_read_once() {
    let net = lockstep_net();
    let control = net.control();
    let obj = Universal::on(
        Arc::new(net.space()),
        Counter,
        1,
        4,
        Duration::from_micros(5),
    );
    obj.invoke(ProcId(0), 1);
    let mut session = obj.session(ProcId(0));
    session.catch_up();
    for want in [8, 7] {
        let before = control.quorum_rounds();
        session.announce(1);
        session.drive_pending();
        assert_eq!(control.quorum_rounds() - before, want);
    }
    assert_eq!(obj.snapshot(), 3);
}

/// Tier-1's copy of `tfr-net`'s conditional-write pin: on an unset cell a
/// conditional write costs its query and its store, two rounds where a
/// read and then a write cost three; on a set cell committed on a
/// majority it costs the query alone and writes nothing.
#[test]
fn a_conditional_write_costs_two_rounds_unset_and_one_set() {
    let net = lockstep_net();
    let control = net.control();
    let (first, second) = (net.space(), net.space());
    let mut between = 0;
    let mut call = |space: &QuorumSpace, value: u64| {
        let before = control.quorum_rounds();
        let seen = space.write_if_unset(3, value, &mut || between += 1);
        (seen, control.quorum_rounds() - before)
    };
    assert_eq!(call(&first, 30), (0, 2), "unset: query, then store");
    assert_eq!(call(&second, 31), (30, 1), "set and committed: the query");
    assert_eq!(between, 1, "`between` runs only before a write");
    assert_eq!(second.read(3), 30);
}

/// A group costs one request per replica per phase, read off the
/// network's counters over [`lockstep_net`] (3 replicas): a read run, an
/// owned run and an agreed write sent as one group cost 1 round and 3
/// requests, where one at a time they cost 3 and 9; a queried write and a
/// read run cost 2 and 6 grouped, 3 and 9 apart.
#[test]
fn a_group_costs_one_request_per_replica_per_phase() {
    let net = lockstep_net();
    let control = net.control();
    let space = net.space();
    let cost = |f: &mut dyn FnMut()| {
        let (rounds, requests) = (control.quorum_rounds(), control.requests_sent());
        f();
        (
            control.quorum_rounds() - rounds,
            control.requests_sent() - requests,
        )
    };
    let mut out = [0; 4];
    let mut group = [
        Access::read_run(0, 1, &mut out),
        Access::write_run(10, 1, &[1, 2], WriteKind::Owned),
        Access::write_run(21, 1, &[1], WriteKind::Agreed),
    ];
    assert_eq!(cost(&mut || space.access_all(&mut group)), (1, 3));
    assert_eq!(
        cost(&mut || {
            space.read_run(0, 1, &mut out);
            space.write_run_owned(10, 1, &[2, 3]);
            space.write_agreed(22, 2);
        }),
        (3, 9)
    );
    let mut got = [0; 2];
    let mut group = [
        Access::write_run(0, 2, &[7, 8], WriteKind::Queried),
        Access::read_run(10, 1, &mut got),
    ];
    assert_eq!(cost(&mut || space.access_all(&mut group)), (2, 6));
    assert_eq!(got, [2, 3]);
    assert_eq!(
        cost(&mut || {
            space.write_run(0, 2, &[9, 10]);
            space.read_run(10, 1, &mut got);
        }),
        (3, 9)
    );
}

/// One worker over [`lockstep_net`] (or its traced twin), with two
/// shards, runs four bursts of 8 ops on each shard in `shards`. Returns
/// the quorum rounds each burst opened (the same for every burst), the
/// requests sent per round, and the network's high-water mark of open
/// rounds.
fn burst_costs(shards: &[usize], traced: bool) -> (u64, u64, usize) {
    let net = if traced {
        let cfg = lockstep_net().config().clone();
        let tracer = Arc::new(Tracer::new(cfg.tracer_processes()));
        Arc::new(Network::with_trace(cfg, Trace::attached(tracer)))
    } else {
        lockstep_net()
    };
    let control = net.control();
    let cfg = ServiceConfig {
        capacity_per_shard: 8,
        delta: Duration::from_micros(5),
        ..ServiceConfig::new(2, 1)
    };
    let svc = ObjectService::on(Arc::new(net.space()), || Counter, &cfg);
    let key_on = |shard: usize| (0..).find(|&k| svc.shard_of(k) == shard).expect("a key");
    let burst: Vec<(u64, u64)> = shards
        .iter()
        .flat_map(|&shard| std::iter::repeat_n((key_on(shard), 1), 8))
        .collect();
    let mut rounds = Vec::new();
    let requests = control.requests_sent();
    with_pid(ProcId(0), || {
        let mut worker = svc.worker(ProcId(0));
        for round in 1..=4u64 {
            let before = control.quorum_rounds();
            worker.enqueue_burst(&burst);
            let done = worker.drive();
            assert_eq!(done.len(), burst.len());
            assert_eq!(done.last().map(|op| op.resp), Some(8 * round));
            rounds.push(control.quorum_rounds() - before);
        }
    });
    assert!(
        rounds.windows(2).all(|w| w[0] == w[1]),
        "shards {shards:?}, traced {traced}: {rounds:?}"
    );
    let per_round = (control.requests_sent() - requests) / rounds.iter().sum::<u64>();
    (rounds[0], per_round, control.max_open_rounds())
}

/// One worker sends its busy shards' accesses in shared rounds: with two
/// shards busy, each step's groups go out as one group of the shared
/// space, so a burst opens one shard's 7 rounds (14 when the shards took
/// turns), one request per replica per round (3 on 3 replicas), and never
/// more than one round is open. A traced network (whose client lane takes
/// one writer) keeps the shards in turn: 2 × 7 rounds.
#[test]
fn a_worker_sends_its_busy_shards_accesses_in_shared_rounds() {
    assert_eq!(burst_costs(&[0, 1], false), (7, 3, 1), "two busy shards");
    assert_eq!(burst_costs(&[1], false), (7, 3, 1), "one busy shard");
    assert_eq!(burst_costs(&[0, 1], true), (14, 3, 1), "traced, in turn");
}
