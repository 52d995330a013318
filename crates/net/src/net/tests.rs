//! Unit tests of the passive network: the queue stepped by hand against
//! a model, link-fate determinism, cross-pumping, and the sleep invariant.

use super::*;
use crate::msg::{Issuer, Ordered, Run, Stored, Version, WriteKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use tfr_registers::space::{Access, RegisterSpace, RegisterSpaceExt};
use tfr_telemetry::{with_pid, Tracer};

#[test]
fn config_quorum_and_pids() {
    let cfg = NetConfig::new(2, 5, 1);
    assert_eq!(cfg.majority(), 3);
    assert_eq!(cfg.node_pid(NodeId::Client(1)), ProcId(1));
    assert_eq!(cfg.node_pid(NodeId::Replica(0)), ProcId(2));
    assert_eq!(cfg.control_pid(), ProcId(7));
    assert_eq!(cfg.tracer_processes(), 8);
}

#[test]
fn replica_apply_is_monotone_and_idempotent() {
    let mut t = Table::new();
    let mut kept = Kept::default();
    let mut replica_apply = |t: &mut Table, payload| replica_apply(t, &mut kept, payload);
    let v1 = Versioned {
        version: Version { ts: 1, wid: 1 },
        value: 10,
    };
    let v2 = Versioned {
        version: Version { ts: 2, wid: 1 },
        value: 20,
    };
    let store = |cells: &[(u64, Versioned)]| {
        let cells: Vec<_> = cells
            .iter()
            .map(|&(reg, data)| store_cell(reg, data))
            .collect();
        Payload::request([], cells)
    };
    replica_apply(&mut t, store(&[(0, v2), (1, v1)]));
    // A late, stale write must not regress a register, and is applied
    // cell by cell: register 1 still moves up.
    replica_apply(&mut t, store(&[(0, v1), (1, v2)]));
    // A duplicated fresh write must be harmless.
    replica_apply(&mut t, store(&[(0, v2)]));
    // A request answers its queries, run after run, before its stores.
    let both = Payload::request([Run::new(0, 1, 3), Run::new(1, 1, 1)], [store_cell(1, v1)]);
    match replica_apply(&mut t, both) {
        Payload::Ack { reg: 0, data, .. } => {
            assert_eq!(data, vec![v2, v2, Versioned::ZERO, v2])
        }
        other => panic!("expected an ack of register 0, got {other:?}"),
    }
}

#[test]
#[should_panic(expected = "missing from the partition")]
fn partition_requires_total_coverage() {
    let net = Network::new(NetConfig::new(1, 3, 7));
    net.control()
        .partition(&[vec![NodeId::Client(0), NodeId::Replica(0)]]);
}

/// A queried store of `data` to `reg`.
fn store_cell(reg: u64, data: Versioned) -> Stored {
    Stored {
        reg,
        data,
        kind: WriteKind::Queried,
    }
}

fn request(client: usize, replica: usize, rid: u64, payload: Payload) -> Message {
    Message {
        from: NodeId::Client(client),
        to: NodeId::Replica(replica),
        rid,
        span: 0,
        payload,
    }
}

#[test]
fn dropping_a_network_with_messages_in_flight_frees_them() {
    let net = Network::new(NetConfig::new(1, 3, 7));
    let read = Payload::request([Run::new(0, 1, 1)], []);
    let sh = net.shared();
    sh.send(
        (0..3).map(|r| request(0, r, 0, read.clone())),
        Instant::now(),
    );
    assert_eq!(lock(&sh.state).queue.len(), 3);
    drop(net); // nothing to join: there is no thread
}

/// One queue entry as the tests compare it: `(deliver_at, seq, from, to)`.
type Flight = (Instant, u64, NodeId, NodeId);

/// The real queue, in delivery order.
fn in_flight(sh: &Shared) -> Vec<Flight> {
    let st = lock(&sh.state);
    let mut flights: Vec<Flight> = st
        .queue
        .iter()
        .map(|Reverse(f)| (f.deliver_at, f.seq, f.msg.from, f.msg.to))
        .collect();
    flights.sort();
    flights
}

/// The tests' own model of the link layer, written from the module docs:
/// one stream per link forked from `(seed, link)`, two draws per message
/// (delay, then drop), a queue ordered by `(deliver_at, seq)`, and a
/// replica that answers the moment a request reaches it. It never looks
/// at a clock either.
struct Model {
    cfg: NetConfig,
    drop_prob: f64,
    links: HashMap<(usize, usize), SplitMix64>,
    /// Every fate drawn, per link, in order: the delay, or `None` = lost.
    fates: BTreeMap<(usize, usize), Vec<Option<Duration>>>,
    queue: Vec<Flight>,
    seq: u64,
}

impl Model {
    fn new(cfg: &NetConfig, drop_prob: f64) -> Model {
        Model {
            cfg: cfg.clone(),
            drop_prob,
            links: HashMap::new(),
            fates: BTreeMap::new(),
            queue: Vec::new(),
            seq: 0,
        }
    }

    fn route(&mut self, from: NodeId, to: NodeId, now: Instant) {
        let link = (self.cfg.key(from), self.cfg.key(to));
        let seed = self.cfg.seed;
        let rng = self.links.entry(link).or_insert_with(|| {
            let id = (link.0 as u64) << 32 | link.1 as u64;
            SplitMix64::new(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        });
        let span_ns = (self.cfg.max_delay - self.cfg.min_delay).as_nanos() as u64;
        let delay = self.cfg.min_delay + Duration::from_nanos(rng.random_range(0..=span_ns));
        let lost = rng.random_bool(self.drop_prob);
        self.fates
            .entry(link)
            .or_default()
            .push((!lost).then_some(delay));
        if !lost {
            self.seq += 1;
            self.queue.push((now + delay, self.seq, from, to));
            self.queue.sort();
        }
    }

    /// Delivers what is due at `now`; returns the deliveries in order.
    fn pump(&mut self, now: Instant) -> Vec<(NodeId, NodeId)> {
        let mut delivered = Vec::new();
        while matches!(self.queue.first(), Some(head) if head.0 <= now) {
            let (_, _, from, to) = self.queue.remove(0);
            delivered.push((from, to));
            if let NodeId::Replica(_) = to {
                self.route(to, from, now);
            }
        }
        delivered
    }

    fn head(&self) -> Option<Instant> {
        self.queue.first().map(|flight| flight.0)
    }
}

/// Satellite 3a, first half: `now` is an argument, so one ABD write is
/// stepped instant by instant on a synthetic timeline — send, three
/// request deliveries interleaved with three ack deliveries as the link
/// draws dictate, then the same for the second phase — and at every step
/// the real queue must be exactly the model's.
#[test]
fn one_write_stepped_by_hand_delivers_in_deliver_at_order() {
    let cfg = NetConfig::new(1, 3, 0x57E9);
    let net = Network::new(cfg.clone());
    let sh = net.shared();
    let mut model = Model::new(&cfg, 0.0);
    let client = NodeId::Client(0);
    let data = Versioned {
        version: Version { ts: 1, wid: 1 },
        value: 99,
    };
    // The epoch of the timeline; from here on instants are computed,
    // never read, and nothing waits.
    let mut now = Instant::now();
    for payload in [
        Payload::request([Run::new(5, 1, 1)], []),
        Payload::request([], [store_cell(5, data)]),
    ] {
        let rid = sh.open_round();
        sh.send((0..3).map(|r| request(0, r, rid, payload.clone())), now);
        for r in 0..3 {
            model.route(client, NodeId::Replica(r), now);
        }
        assert_eq!(in_flight(sh), model.queue);

        let (mut acks, mut ack_order) = (Vec::new(), Vec::new());
        while let Some(due) = model.head() {
            // A nanosecond early nothing moves, and the round is told
            // exactly when to come back.
            let early = due - Duration::from_nanos(1);
            assert_eq!(sh.poll(rid, early, &mut acks), Some(due));
            assert_eq!(in_flight(sh), model.queue);
            now = due;
            let next_due = sh.poll(rid, now, &mut acks);
            let delivered = model.pump(now);
            assert_eq!(delivered.len(), 1, "one message per instant");
            if let (NodeId::Replica(r), NodeId::Client(_)) = delivered[0] {
                ack_order.push(r);
            }
            assert_eq!(in_flight(sh), model.queue);
            assert_eq!(next_due, model.head());
        }
        // The mailbox hands the acks over in delivery order.
        assert_eq!(acks.iter().map(|(r, _)| *r).collect::<Vec<_>>(), ack_order);
        assert_eq!(ack_order.len(), 3);
        for (_, ack) in &acks {
            let Payload::Request { query, .. } = &payload else {
                unreachable!("a client sends requests")
            };
            let want = vec![Versioned::ZERO; query.len()];
            let groups = Vec::new();
            assert_eq!(
                *ack,
                Payload::Ack {
                    reg: 5,
                    data: want,
                    groups
                }
            );
        }
        sh.close_round(rid);
    }
    let st = lock(&sh.state);
    assert!(st.tables.iter().all(|table| table[&5] == data));
    assert!(st.queue.is_empty() && st.mailboxes.is_empty());
    // 2 phases × (3 requests + 3 acks), each delivered by its own pump.
    assert_eq!((st.delivered, st.delivery_batches), (12, 12));
}

/// Satellite 3a, second half: the fate of the n-th message on a link is
/// a pure function of `(seed, link, n)`. Two networks with one seed take
/// the same 600 requests under a 30 % drop rate; one is pumped after
/// every send, the other only now and then, so their deliveries — and the
/// instants their replicas answer at — interleave differently. Each must
/// match its model at every step, and both end with the very same
/// per-link `(delay, dropped)` sequences, over more than 1 000 messages.
#[test]
fn link_fates_do_not_depend_on_when_the_queue_is_pumped() {
    const DROP: f64 = 0.3;
    let cfg = NetConfig::new(2, 3, 0xFA7E5);
    let t0 = Instant::now();
    let run = |pump_every: u64| {
        let net = Network::new(cfg.clone());
        net.control().set_drop(DROP);
        let sh = net.shared();
        let mut model = Model::new(&cfg, DROP);
        let step = |model: &mut Model, now: Instant| {
            let mut st = lock(&sh.state);
            sh.pump(&mut st, now);
            drop(st);
            model.pump(now);
            assert_eq!(in_flight(sh), model.queue);
        };
        for n in 0..600u64 {
            let now = t0 + Duration::from_micros(7 * n);
            let (client, replica) = ((n % 2) as usize, (n % 3) as usize);
            // rid 0 is never opened: every ack finds its round closed.
            let read = Payload::request([Run::new(n, 1, 1)], []);
            let msg = request(client, replica, 0, read);
            model.route(msg.from, msg.to, now);
            sh.send(std::iter::once(msg), now);
            assert_eq!(in_flight(sh), model.queue);
            if n % pump_every == 0 {
                step(&mut model, now);
            }
        }
        // Flush: the remaining requests, then the acks they caused.
        for ms in [10, 20] {
            step(&mut model, t0 + Duration::from_millis(ms));
        }
        let st = lock(&sh.state);
        assert!(st.queue.is_empty());
        assert!(st.mailboxes.is_empty(), "an ack re-opened a closed round");
        let routed: usize = model.fates.values().map(Vec::len).sum();
        assert_eq!(st.seq + lost(&model.fates), routed as u64);
        model.fates
    };
    fn lost(fates: &BTreeMap<(usize, usize), Vec<Option<Duration>>>) -> u64 {
        fates.values().flatten().filter(|f| f.is_none()).count() as u64
    }
    let (eager, lazy) = (run(1), run(13));
    assert_eq!(eager, lazy);
    let total: usize = eager.values().map(Vec::len).sum();
    assert!(total >= 1_000, "only {total} messages routed");
    assert_eq!(eager.len(), 12, "6 request links and 6 reply links");
    let share = lost(&eager) as f64 / total as f64;
    assert!((0.2..0.4).contains(&share), "drop share {share}");
}

/// Satellite 3b: two client threads deliver each other's traffic. 700
/// write+read pairs each (over 2 000 quorum rounds per thread), first on
/// disjoint registers, then on one shared register. Every round
/// completes, no ack outlives its round in a mailbox, and a final read
/// returns the last committed write. (The Wing–Gong check of the same
/// traffic is `tests/net_integration.rs`.)
#[test]
fn two_clients_pump_each_others_rounds() {
    const PAIRS: u64 = 700;
    let net = Arc::new(Network::new(NetConfig::new(2, 3, 0xC405)));
    for shared_register in [false, true] {
        let rounds_before = lock(&net.shared().state).next_rid;
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let net = &net;
                s.spawn(move || {
                    with_pid(ProcId(t as usize), || {
                        let space = net.space();
                        let reg = if shared_register { 9 } else { t };
                        let mut last = Version::default();
                        for k in 1..=PAIRS {
                            space.write(reg, t * 1_000_000 + k);
                            let seen = space.read_versioned(reg);
                            assert!(seen.version > last, "a read went back in time");
                            last = seen.version;
                            if shared_register {
                                let (writer, seq) =
                                    (seen.value / 1_000_000, seen.value % 1_000_000);
                                assert!(writer < 2 && (1..=PAIRS).contains(&seq));
                                assert!(writer != t || seq == k, "own write lost");
                            } else {
                                assert_eq!(seen.value, t * 1_000_000 + k);
                            }
                        }
                    })
                });
            }
        });
        let space = net.space();
        let finals: Vec<u64> = if shared_register {
            vec![space.read(9)]
        } else {
            vec![space.read(0), space.read(1)]
        };
        for (t, last) in finals.iter().enumerate() {
            assert_eq!(last % 1_000_000, PAIRS, "not a thread's last write");
            assert!(shared_register || last / 1_000_000 == t as u64);
        }
        let st = lock(&net.shared().state);
        assert!(st.next_rid - rounds_before >= 2 * 2_000);
        assert!(st.mailboxes.is_empty(), "a closed round kept a mailbox");
    }
    // Stragglers of completed rounds are still in flight; delivering them
    // (requests, then their acks) must not resurrect any round.
    let sh = net.shared();
    for ms in [10, 20] {
        let mut st = lock(&sh.state);
        sh.pump(&mut st, Instant::now() + Duration::from_millis(ms));
        assert!(st.mailboxes.is_empty());
    }
    assert!(lock(&sh.state).queue.is_empty());
}

/// How many times a single client can have (re)transmitted in `elapsed`
/// spent on `rounds` quorum rounds: once per round, then once per expired
/// `retransmit` period. Everything the sleep invariant promises is a
/// small multiple of this — a hot re-pump loop would be thousands.
fn transmissions_bound(cfg: &NetConfig, elapsed: Duration, rounds: u64) -> u64 {
    (elapsed.as_nanos() / cfg.retransmit.as_nanos()) as u64 + rounds
}

fn count_events(tracer: &Tracer, pred: impl Fn(&EventKind) -> bool) -> u64 {
    tracer.events().iter().filter(|e| pred(&e.kind)).count() as u64
}

/// Satellite 3c: with every link 5 ms slow, a write still takes only
/// its four link delays, retransmitting about once per `retransmit`
/// period and pumping once per delivery — not spinning on the queue.
#[test]
fn a_delay_spike_is_slept_through_not_polled() {
    let cfg = NetConfig::new(1, 3, 0x51EE9);
    let tracer = Arc::new(Tracer::new(cfg.tracer_processes()));
    let trace = Trace::attached(Arc::clone(&tracer));
    let net = Arc::new(Network::with_trace(cfg.clone(), trace));
    let spike = Duration::from_millis(5);
    net.control().delay_spike(spike);
    let space = net.space();
    let started = Instant::now();
    with_pid(ProcId(0), || space.write(0, 7));
    let elapsed = started.elapsed();
    assert!(elapsed >= 4 * spike, "two rounds of two spiked links each");

    let st = lock(&net.shared().state);
    let transmissions = transmissions_bound(&cfg, elapsed, 2);
    // A pump that delivers nothing happens only when a retransmit
    // deadline wakes the client and right after the transmission that
    // follows; every other wake-up is at the head of the queue.
    let empty_pumps = st.pumps - st.delivery_batches;
    assert!(
        empty_pumps <= 2 * transmissions,
        "{empty_pumps} empty pumps in {elapsed:?}"
    );
    // Each transmission reaches at most 3 replicas, which ack once each.
    let sends = count_events(&tracer, |k| matches!(k, EventKind::MsgSend { .. }));
    assert!(sends <= 6 * transmissions, "{sends} sends in {elapsed:?}");
}

/// Satellite 3c: a client stranded below a majority for 50 ms sleeps out
/// its retransmit timer — about one pump and one retransmission per
/// period — and completes promptly once the partition heals.
#[test]
fn a_stranded_client_sleeps_between_retransmissions() {
    let cfg = NetConfig::new(1, 5, 0x150);
    let tracer = Arc::new(Tracer::new(cfg.tracer_processes()));
    let trace = Trace::attached(Arc::clone(&tracer));
    let net = Arc::new(Network::with_trace(cfg.clone(), trace));
    let control = net.control();
    control.isolate_clients_with(1);
    let done = AtomicBool::new(false);
    // Observe first, heal, and only then assert: a failed assertion inside
    // the scope would wait forever for a writer nobody is going to heal.
    let (elapsed, early, counts, dropped, healed_at, done_at) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            with_pid(ProcId(0), || net.space().write(3, 1));
            done.store(true, Ordering::SeqCst);
            Instant::now()
        });
        let started = Instant::now();
        std::thread::sleep(Duration::from_millis(50));
        let elapsed = started.elapsed();
        let early = done.load(Ordering::SeqCst);
        let counts = {
            let st = lock(&net.shared().state);
            (st.delivered, st.delivery_batches, st.pumps)
        };
        let dropped = count_events(&tracer, |k| matches!(k, EventKind::MsgDropped { .. }));
        control.heal();
        let healed_at = Instant::now();
        let done_at = writer.join().expect("writer panicked");
        (elapsed, early, counts, dropped, healed_at, done_at)
    });
    assert!(!early, "committed without a majority");
    let (delivered, delivery_batches, pumps) = counts;
    // Replica 0 is reachable: one request and one ack get through.
    assert_eq!((delivered, delivery_batches), (2, 2));
    let transmissions = transmissions_bound(&cfg, elapsed, 1);
    assert!(
        pumps <= 2 + 2 * transmissions,
        "{pumps} pumps in {elapsed:?}"
    );
    assert!(pumps > 3, "the client never retransmitted");
    // Four unreachable replicas per transmission.
    assert!(
        dropped <= 4 * transmissions,
        "{dropped} drops in {elapsed:?}"
    );
    // After the heal: the rest of one retransmit period asleep, then two
    // round trips. The slack is for the scheduler, not the protocol.
    let budget = cfg.retransmit + 4 * cfg.max_delay + Duration::from_millis(50);
    let took = done_at.saturating_duration_since(healed_at);
    assert!(took <= budget, "completed {took:?} after the heal");
    assert_eq!(net.space().read(3), 1);
}

/// A cluster whose links all take exactly 20 µs: the requests of a round
/// reach every replica in one pump and their acks come back in the next,
/// so every replica sees every round and no read ever needs a write-back.
fn lockstep_net(clients: usize) -> Arc<Network> {
    let mut cfg = NetConfig::new(clients, 3, 0x10C5);
    cfg.min_delay = Duration::from_micros(20);
    cfg.max_delay = cfg.min_delay;
    Arc::new(Network::new(cfg))
}

/// A run of any length costs the rounds of one register: a write run one
/// query round and one store round, a read run one query round. The
/// single-cell forms are runs of one, so they cost the same.
#[test]
fn a_run_costs_the_rounds_of_one_register() {
    let net = lockstep_net(1);
    let control = net.control();
    let space = net.space();
    let rounds = |f: &mut dyn FnMut()| {
        let before = control.quorum_rounds();
        f();
        control.quorum_rounds() - before
    };
    let values: Vec<u64> = (1..=64).collect();
    for len in [1usize, 8, 64] {
        let base = 1_000 * len as u64;
        assert_eq!(rounds(&mut || space.write_run(base, 3, &values[..len])), 2);
        let mut out = vec![0; len];
        assert_eq!(rounds(&mut || space.read_run(base, 3, &mut out)), 1);
        assert_eq!(out, &values[..len], "len {len}");
    }
    assert_eq!(rounds(&mut || space.write(7, 70)), 2);
    assert_eq!(rounds(&mut || assert_eq!(space.read(7), 70)), 1);
    assert_eq!(
        rounds(&mut || space.read_run(0, 1, &mut [])),
        0,
        "an empty run is free"
    );
    // Every cell of a write run carries the same fresh version.
    let mut versioned = vec![Versioned::ZERO; 8];
    space.read_run_versioned(8_000, 3, &mut versioned);
    assert!(versioned.iter().all(|v| v.version == versioned[0].version));
    assert_eq!(space.read(8_000 + 3 * 8), 0, "nothing past the run");
}

/// An owned write run is one store round, whatever its length, and its
/// version is above every timestamp the handle issued before, queried
/// writes' included.
#[test]
fn an_owned_write_is_one_store_round_above_the_handles_floor() {
    let net = lockstep_net(1);
    let control = net.control();
    let space = net.space();
    let rounds = |f: &mut dyn FnMut()| {
        let before = control.quorum_rounds();
        f();
        control.quorum_rounds() - before
    };
    let values: Vec<u64> = (1..=64).collect();
    for len in [1usize, 8, 64] {
        let base = 1_000 * len as u64;
        assert_eq!(
            rounds(&mut || space.write_run_owned(base, 3, &values[..len])),
            1
        );
        let mut out = vec![0; len];
        space.read_run(base, 3, &mut out);
        assert_eq!(out, &values[..len], "len {len}");
    }
    space.write(5, 50);
    let queried = space.read_versioned(5).version;
    space.write_run_owned(6, 1, &[60]);
    let owned = space.read_versioned(6);
    assert_eq!(owned.value, 60);
    assert!(owned.version > queried, "{} ≤ {queried}", owned.version);
    assert_eq!(owned.version.wid, space.writer_id());
}

/// Debug builds check the owned-write contract at the replicas: a second
/// handle's owned store to a cell the first handle owns panics.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "every write to an owned cell must come through its one handle")]
fn a_foreign_owned_store_to_an_owned_cell_panics() {
    let net = lockstep_net(1);
    let (owner, intruder) = (net.space(), net.space());
    owner.write_run_owned(4, 1, &[1]);
    intruder.write_run_owned(4, 1, &[2]);
}

/// The same check catches a foreign queried write: its store carries the
/// intruder's writer id too.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "every write to an owned cell must come through its one handle")]
fn a_foreign_queried_store_to_an_owned_cell_panics() {
    let net = lockstep_net(1);
    let (owner, intruder) = (net.space(), net.space());
    owner.write_run_owned(4, 1, &[1]);
    intruder.write(4, 2);
}

/// An agreed write is one store round from any handle, and a later
/// handle's agreed write may carry a lower version than an earlier one's:
/// every version of the cell holds the one value, so readers see it
/// either way.
#[test]
fn an_agreed_write_is_one_store_round_from_any_handle() {
    let net = lockstep_net(1);
    let control = net.control();
    let (first, second) = (net.space(), net.space());
    for k in 0..3 {
        first.write(100 + k, 1); // lift the first handle's floor
    }
    let rounds = |f: &mut dyn FnMut()| {
        let before = control.quorum_rounds();
        f();
        control.quorum_rounds() - before
    };
    assert_eq!(rounds(&mut || first.write_agreed(9, 7)), 1);
    let after_first = first.read_versioned(9);
    assert_eq!(rounds(&mut || second.write_agreed(9, 7)), 1);
    let after_second = second.read_versioned(9);
    assert_eq!((after_first.value, after_second.value), (7, 7));
    assert_eq!(
        after_second, after_first,
        "the second handle's version ({}) is below the first's and lost",
        after_second.version
    );
}

/// Debug builds check the agreed-write contract at the replicas: an
/// agreed store whose value differs from the one a replica holds panics.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "every write to an agreed cell must carry one value")]
fn a_disagreeing_agreed_store_panics() {
    let net = lockstep_net(1);
    let (a, b) = (net.space(), net.space());
    a.write_agreed(4, 1);
    b.write_agreed(4, 2);
}

/// A read run writes back exactly the cells a majority might miss. Cell 0
/// sits at its maximum on two replicas of three (committed), cell 1's
/// newest version on one replica only. The write-back must carry cell 1
/// and leave cell 0 alone — and the seeded first-cell mutant, seeing cell
/// 0 committed, carries nothing.
#[test]
fn a_read_run_writes_back_only_the_cells_behind() {
    let old = Versioned {
        version: Version { ts: 1, wid: 90 },
        value: 10,
    };
    let new = Versioned {
        version: Version { ts: 2, wid: 91 },
        value: 20,
    };
    for mutant in [false, true] {
        let net = lockstep_net(1);
        {
            let mut st = lock(&net.shared().state);
            for (r, table) in st.tables.iter_mut().enumerate() {
                if r < 2 {
                    table.insert(0, old);
                }
                table.insert(1, if r == 0 { new } else { old });
            }
        }
        let space = net.space();
        let space = if mutant {
            space.with_first_cell_write_back()
        } else {
            space
        };
        let before = net.control().quorum_rounds();
        let mut out = [0; 2];
        space.read_run(0, 1, &mut out);
        assert_eq!(out, [10, 20], "each cell's maximum");
        let rounds = net.control().quorum_rounds() - before;
        let st = lock(&net.shared().state);
        let cell = |r: usize, reg: u64| st.tables[r].get(&reg).copied();
        assert_eq!(cell(2, 0), None, "cell 0 was committed: never written back");
        if mutant {
            assert_eq!(rounds, 1, "the mutant skips the write-back");
            assert_eq!(cell(1, 1), Some(old), "cell 1 left on a minority");
        } else {
            assert_eq!(rounds, 2);
            assert!(
                (0..3).all(|r| cell(r, 1) == Some(new)),
                "cell 1 written back"
            );
        }
    }
}

/// A conditional write is a read whose query round doubles as a queried
/// write's. On an unset cell it costs that query and the store round, two
/// rounds where a read and then a write cost three, and `between` runs
/// between them. On a set cell that a majority holds at its maximum it
/// costs the query alone and writes nothing. On a set cell whose newest
/// version sits on one replica it is a read with its write-back, and
/// still writes nothing of its own.
#[test]
fn a_conditional_write_costs_two_rounds_unset_and_one_set() {
    let net = lockstep_net(1);
    let control = net.control();
    let (first, second) = (net.space(), net.space());
    let mut between = 0;
    let mut call = |space: &crate::QuorumSpace, index: u64, value: u64| {
        let before = control.quorum_rounds();
        let seen = space.write_if_unset(index, value, &mut || between += 1);
        (seen, control.quorum_rounds() - before)
    };
    assert_eq!(call(&first, 3, 30), (0, 2), "unset: query, then store");
    let written = first.read_versioned(3);
    assert_eq!(
        (written.value, written.version.wid),
        (30, first.writer_id())
    );
    assert_eq!(
        call(&second, 3, 31),
        (30, 1),
        "set and committed: the query"
    );
    assert_eq!(second.read_versioned(3), written, "nothing written");
    let newest = Versioned {
        version: Version { ts: 9, wid: 90 },
        value: 90,
    };
    lock(&net.shared().state).tables[0].insert(4, newest);
    assert_eq!(
        call(&second, 4, 41),
        (90, 2),
        "set on one replica: write-back"
    );
    let st = lock(&net.shared().state);
    assert!((0..3).all(|r| st.tables[r].get(&4) == Some(&newest)));
    drop(st);
    assert_eq!(between, 1, "`between` runs only before a write");
}

/// A group costs one request per replica per phase, however many
/// accesses it holds: a read run, an owned run and an agreed write share
/// one round; a queried write and a read run take a query round and a
/// store round, as does a conditional write of an unset cell with a
/// queried write, `between` running once between the two.
#[test]
fn a_group_is_one_request_per_replica_per_phase() {
    let net = lockstep_net(1);
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
    space.write_run(0, 1, &[1, 2, 3, 4]);
    let mut out = [0; 4];
    let mut group = [
        Access::read_run(0, 1, &mut out),
        Access::write_run(10, 1, &[5, 6], WriteKind::Owned),
        Access::write_run(20, 1, &[7], WriteKind::Agreed),
    ];
    assert_eq!(cost(&mut || space.access_all(&mut group)), (1, 3));
    assert_eq!(out, [1, 2, 3, 4]);
    let mut out = [0; 2];
    let mut group = [
        Access::write_run(30, 1, &[8], WriteKind::Queried),
        Access::read_run(10, 1, &mut out),
    ];
    assert_eq!(cost(&mut || space.access_all(&mut group)), (2, 6));
    assert_eq!(out, [5, 6]);
    let mut between = 0;
    let mut count = || between += 1;
    let mut group = [
        Access::write_if_unset(40, 9, &mut count),
        Access::write_run(30, 1, &[10], WriteKind::Queried),
    ];
    assert_eq!(cost(&mut || space.access_all(&mut group)), (2, 6));
    assert!(matches!(group[0], Access::WriteIfUnset { seen: 0, .. }));
    assert_eq!(between, 1);
    let mut out = [0; 4];
    space.read_run(20, 10, &mut out);
    assert_eq!(out, [7, 10, 9, 0]);
    assert_eq!(cost(&mut || space.access_all(&mut [])), (0, 0), "free");
}

/// The seeded unrepaired-groups mutant skips a group's write-backs: a
/// read run grouped with an agreed write returns cell 1's newest value,
/// which sits on one replica of three, and leaves it there. The correct
/// handle writes it back in a second round; a group of one is served
/// correctly by both.
#[test]
fn the_unrepaired_group_mutant_skips_the_write_back() {
    let new = Versioned {
        version: Version { ts: 2, wid: 91 },
        value: 20,
    };
    for (mutant, grouped) in [(false, true), (true, true), (true, false)] {
        let net = lockstep_net(1);
        lock(&net.shared().state).tables[0].insert(1, new);
        let space = net.space();
        let space = if mutant {
            space.with_unrepaired_groups()
        } else {
            space
        };
        let before = net.control().quorum_rounds();
        let mut out = [0; 2];
        let mut group = vec![Access::read_run(0, 1, &mut out)];
        if grouped {
            group.push(Access::write_run(5, 1, &[1], WriteKind::Agreed));
        }
        space.access_all(&mut group);
        drop(group);
        assert_eq!(out, [0, 20], "each cell's maximum");
        let rounds = net.control().quorum_rounds() - before;
        let repaired = (0..3).all(|r| lock(&net.shared().state).tables[r].get(&1) == Some(&new));
        let skipped = mutant && grouped;
        assert_eq!((rounds, repaired), (2 - skipped as u64, !skipped));
    }
}

/// An owned store of `value` to `reg` at `version`, as a group carries it.
fn owned_cell(reg: u64, version: Version, value: u64) -> Stored {
    Stored {
        reg,
        data: Versioned { version, value },
        kind: WriteKind::Owned,
    }
}

/// An ordered group of `issuer`'s, at `ts`, of the cells `(reg, value)`.
fn ordered(issuer: Issuer, ts: u64, cells: &[(u64, u64)]) -> Ordered {
    let version = Version {
        ts,
        wid: issuer.wid,
    };
    let cells: Vec<Stored> = cells
        .iter()
        .map(|&(reg, value)| owned_cell(reg, version, value))
        .collect();
    Ordered {
        issuer,
        cells: cells.into(),
    }
}

/// A replica keeps each issuer's newest ordered group whole and hands it
/// out with every queried cell that holds its tag, once per ack: a newer
/// group of the same issuer replaces it, a late retransmit of an older
/// one does not, another issuer's group is kept beside it, and a group
/// a reader writes back is kept as its own request's would be.
#[test]
fn a_replica_keeps_each_issuers_newest_group_whole() {
    let (mut table, mut kept) = (Table::new(), Kept::default());
    let mut apply = |payload| replica_apply(&mut table, &mut kept, payload);
    let groups_of = |ack: Payload| match ack {
        Payload::Ack { groups, .. } => groups.iter().map(Ordered::tag).collect::<Vec<_>>(),
        other => panic!("expected an ack, got {other:?}"),
    };
    let query = |regs: &[u64]| {
        let runs: Vec<Run> = regs.iter().map(|&reg| Run::new(reg, 1, 1)).collect();
        Payload::request(runs, [])
    };
    let me = Issuer { wid: 7, thread: 1 };
    let old = ordered(me, 1, &[(10, 1), (11, 1)]);
    let new = ordered(me, 2, &[(12, 2), (11, 2)]);
    apply(Payload::grouped([], [], [old.clone()]));
    assert_eq!(
        groups_of(apply(query(&[10, 11]))),
        [old.tag()],
        "once per ack"
    );
    apply(Payload::grouped([], [], [new.clone()]));
    assert_eq!(
        groups_of(apply(query(&[10]))),
        [],
        "replaced by the newer group"
    );
    assert_eq!(groups_of(apply(query(&[11, 12]))), [new.tag()]);
    apply(Payload::grouped([], [], [old.clone()]));
    assert_eq!(
        groups_of(apply(query(&[12]))),
        [new.tag()],
        "a late retransmit"
    );
    let other = ordered(Issuer { wid: 7, thread: 2 }, 3, &[(20, 3)]);
    apply(Payload::grouped(
        [],
        [store_cell(30, new.cells[0].data)],
        [other.clone()],
    ));
    assert_eq!(
        groups_of(apply(query(&[20, 12, 30]))),
        [other.tag(), new.tag()],
        "a lone cell at a group's tag names it too"
    );
    let (mut table, mut kept) = (Table::new(), Kept::default());
    replica_apply(
        &mut table,
        &mut kept,
        Payload::grouped([], [], [new.clone()]),
    );
    let ack = replica_apply(&mut table, &mut kept, query(&[12]));
    assert_eq!(groups_of(ack), [new.tag()], "a written-back group is kept");
}

/// The hazard an ordered group closes. A writer's group, its payload
/// (cell 10) and then its counter (cell 11), reached replica s0 alone. A
/// reader reads the counter from all three replicas, finds it on s0
/// only and writes it back; then s0 is cut off, and the reader reads the
/// payload from s1 and s2. The correct handle writes the whole group
/// back, so the payload read sees it; the seeded unrepaired-ordered-group
/// mutant writes back the counter alone, and the payload read returns 0
/// after the counter read returned the later cell.
#[test]
fn the_unrepaired_ordered_group_mutant_writes_back_one_cell() {
    let writer = Issuer { wid: 90, thread: 1 };
    let group = ordered(writer, 5, &[(10, 7), (11, 1)]);
    for mutant in [false, true] {
        let net = lockstep_net(1);
        {
            let mut st = lock(&net.shared().state);
            let RouterState { tables, kept, .. } = &mut *st;
            let stranded = Payload::grouped([], [], [group.clone()]);
            replica_apply(&mut tables[0], &mut kept[0], stranded);
        }
        let space = net.space();
        let reader = if mutant {
            space.with_unrepaired_ordered_groups()
        } else {
            space
        };
        let before = net.control().quorum_rounds();
        assert_eq!(reader.read(11), 1, "the counter, from s0");
        assert_eq!(net.control().quorum_rounds() - before, 2, "a write-back");
        net.control().partition_minority(1);
        let payload = reader.read(10);
        assert_eq!(payload, if mutant { 0 } else { 7 }, "mutant {mutant}");
        let st = lock(&net.shared().state);
        let holders = (0..3).filter(|&r| st.tables[r].contains_key(&10)).count();
        assert_eq!(holders, if mutant { 1 } else { 3 });
    }
}
