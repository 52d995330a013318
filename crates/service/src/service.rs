//! The sharded object service proper: one register space, tiled into
//! per-shard regions, each region running its own universal construction
//! over a key-multiplexed object.
//!
//! # Shape
//!
//! * [`ObjectService::on`] splits the supplied space into `shards`
//!   disjoint [`SubSpace`] regions with [`SubSpace::tile`] — shard `t`
//!   owns exactly the parent registers `t, t+shards, t+2·shards, …`, so
//!   shards can never alias each other's registers.
//! * Each region hosts a [`Universal`]`<`[`Keyed`]`<T>>` shared by all
//!   workers: a worker is one process id valid on *every* shard, because
//!   its keys hash across all of them.
//! * A [`ServiceWorker`] holds one [`Session`] per shard and drives the
//!   flat-combining protocol: route and announce a burst
//!   ([`ServiceWorker::enqueue_burst`]), then replay and combine
//!   ([`ServiceWorker::drive`]) — one consensus decision per *batch*,
//!   not per operation.
//! * Both steps act on every busy shard through one loop, on the
//!   worker's own thread. Each shard's [`Session`] is a machine that
//!   waits on one group of register accesses at a time. When the space's
//!   accesses are network round trips ([`RegisterSpace::round_trips`],
//!   the quorum backend) and no trace is attached, a worker with more
//!   than one busy shard multiplexes them: each step it lifts every ready
//!   shard's group into the shared space's coordinates and sends them
//!   all in one [`RegisterSpace::access_all`] call, one request per
//!   replica per phase. A burst then costs one shard's rounds, not the
//!   sum of them. On native memory, or with a trace attached, the loop
//!   takes the shards in turn.
//!
//! Telemetry: every enqueue emits [`EventKind::ServiceEnqueue`], and
//! every batch whose proposal *this* worker won emits one
//! [`EventKind::BatchCommit`] (the proposer emits, so each batch is
//! counted exactly once across the fleet).

use crate::keyed::{encode_op, Keyed};
use crate::router::Router;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfr_core::universal::{LogAudit, Sequential, Session, Universal, Wait};
use tfr_registers::chaos;
use tfr_registers::native::precise_wait_until;
use tfr_registers::space::{Access, NativeSpace, RegisterSpace, SubSpace};
use tfr_registers::ProcId;
use tfr_telemetry::{EventKind, Span, Trace};

/// Construction parameters for an [`ObjectService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards the key space is routed over.
    pub shards: usize,
    /// Number of worker processes (each holds one pid valid on every
    /// shard). At most 255.
    pub workers: usize,
    /// Log-slot capacity of each shard (upper bound on batches a shard
    /// can commit; every committed batch holds at least one op, so ops
    /// per shard is always a safe bound).
    pub capacity_per_shard: usize,
    /// The consensus `delay(Δ)` estimate.
    pub delta: Duration,
    /// Largest batch one combining decision may commit.
    pub max_batch: usize,
    /// Seed of the key → shard router.
    pub router_seed: u64,
}

impl ServiceConfig {
    /// A config with workspace-default tuning (1024 slots per shard,
    /// Δ = 50 µs, batches of up to 64).
    pub fn new(shards: usize, workers: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            workers,
            capacity_per_shard: 1024,
            delta: Duration::from_micros(50),
            max_batch: 64,
            router_seed: 0x5eed,
        }
    }
}

/// A completed operation returned by [`ServiceWorker::drive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResponse {
    /// The operation's position in this worker's enqueue order (0-based,
    /// monotone across bursts).
    pub pos: u64,
    /// The key the operation addressed.
    pub key: u64,
    /// The shard it was routed to.
    pub shard: usize,
    /// The object's response.
    pub resp: u64,
}

/// A sharded wait-free object service over any [`RegisterSpace`]
/// backend: native shared memory or the quorum-replicated network space,
/// unchanged.
pub struct ObjectService<T: Sequential, S: RegisterSpace = NativeSpace> {
    shards: Vec<Universal<Keyed<T>, SubSpace<Arc<S>>>>,
    /// The space the shards tile, which a multiplexed step's group goes
    /// to.
    space: Arc<S>,
    router: Router,
    workers: usize,
    trace: Trace,
    /// Whether the space's accesses are round trips
    /// ([`RegisterSpace::round_trips`]).
    round_trips: bool,
}

impl<T: Sequential> ObjectService<T, NativeSpace> {
    /// A service over fresh native shared memory.
    pub fn new(make: impl Fn() -> T, cfg: &ServiceConfig) -> ObjectService<T, NativeSpace> {
        ObjectService::on(Arc::new(NativeSpace::with_capacity(1024)), make, cfg)
    }
}

impl<T: Sequential, S: RegisterSpace> ObjectService<T, S> {
    /// A service tiling `space` into `cfg.shards` disjoint regions;
    /// `make` builds each shard's prototype object.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` is 0 or `cfg.workers` is not in 1..=255.
    pub fn on(space: Arc<S>, make: impl Fn() -> T, cfg: &ServiceConfig) -> ObjectService<T, S> {
        assert!(cfg.shards > 0, "a service needs at least one shard");
        let round_trips = space.round_trips();
        let shards = SubSpace::tile(Arc::clone(&space), cfg.shards as u64)
            .into_iter()
            .map(|tile| {
                Universal::on(
                    Arc::new(tile),
                    Keyed::new(make()),
                    cfg.workers,
                    cfg.capacity_per_shard,
                    cfg.delta,
                )
                .with_max_batch(cfg.max_batch)
            })
            .collect();
        ObjectService {
            shards,
            space,
            router: Router::new(cfg.shards, cfg.router_seed),
            workers: cfg.workers,
            trace: Trace::default(),
            round_trips,
        }
    }

    /// Attaches a telemetry trace; enqueues and batch commits are
    /// emitted through it, and every shard's universal construction
    /// stamps a `"consensus"` span around each combining proposal — the
    /// middle of the causal chain client.enqueue → batch.drive →
    /// consensus → quorum phases.
    pub fn with_trace(mut self, trace: Trace) -> ObjectService<T, S> {
        self.shards = self
            .shards
            .into_iter()
            .map(|u| u.with_trace(trace.clone()))
            .collect();
        self.trace = trace;
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of worker processes.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The key → shard router (pure; share it freely).
    pub fn router(&self) -> Router {
        self.router
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        self.router.route(key)
    }

    /// A driving handle for worker `pid`, holding one session per shard.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a worker id.
    pub fn worker(&self, pid: ProcId) -> ServiceWorker<'_, T, S> {
        assert!(pid.0 < self.workers, "unknown worker pid");
        let lanes = self
            .shards
            .iter()
            .map(|u| Lane {
                session: u.session(pid),
                pending: VecDeque::new(),
                ops: Vec::new(),
                meta: Vec::new(),
                busy: false,
            })
            .collect();
        ServiceWorker {
            svc: self,
            pid,
            lanes,
            issued: 0,
            batch_sizes: Vec::new(),
        }
    }

    /// The current committed state of shard `shard`, keyed by object key
    /// (a fresh replay; intended for post-run verification).
    pub fn snapshot(&self, shard: usize) -> std::collections::BTreeMap<u64, T::State> {
        self.shards[shard].snapshot()
    }

    /// Spec-form audits of every shard's committed log, read straight
    /// from the registers.
    pub fn audit(&self) -> Vec<LogAudit> {
        self.shards.iter().map(Universal::audit).collect()
    }

    /// Ground truth for lost-op accounting: what worker `p` announced on
    /// `shard` at sequence number `seq`, straight from the registers.
    pub fn announced_op(&self, shard: usize, p: usize, seq: u64) -> Option<u64> {
        self.shards[shard].announced_op(p, seq)
    }
}

/// One shard as one worker drives it.
struct Lane<'s, T: Sequential, S: RegisterSpace> {
    session: Session<'s, Keyed<T>, SubSpace<Arc<S>>>,
    /// Announced-but-unresolved ops: `(seq, pos, key)` in announce order.
    pending: VecDeque<(u64, u64, u64)>,
    /// The burst being enqueued, as routed here: encoded ops, and their
    /// `(pos, key)`.
    ops: Vec<u64>,
    meta: Vec<(u64, u64)>,
    /// Whether the step in progress has work on this shard.
    busy: bool,
}

/// A per-worker driving handle: enqueue bursts, drive the shards with
/// pending work, collect responses. Created by [`ObjectService::worker`].
///
/// Both steps act on every busy shard through one loop
/// (`each_busy_lane`), on the calling thread; the worker spawns nothing.
/// Over a space whose accesses are round trips
/// ([`RegisterSpace::round_trips`]), with no trace attached and more than
/// one shard busy, the loop multiplexes the shards' sessions: at each
/// step it sends the next group of every shard that is ready as one
/// group of the shared space, and a shard at `delay(Δ)` becomes a
/// deadline, the worker serving the others meanwhile and waiting only
/// when no shard is ready. The shards are disjoint register regions and
/// linearizability is local, so sharing a round changes no protocol
/// argument: a group promises nothing across its accesses but the order
/// of its owned and agreed writes, which the shared group keeps for each
/// shard's, and each shard's accesses keep their own order. Otherwise
/// the loop runs the
/// shards in turn, each session's groups alone, as one after the other
/// on a traced service keeps the span tree of each shard's drive whole.
pub struct ServiceWorker<'s, T: Sequential, S: RegisterSpace> {
    svc: &'s ObjectService<T, S>,
    pid: ProcId,
    lanes: Vec<Lane<'s, T, S>>,
    /// Ops enqueued by this worker so far (assigns [`OpResponse::pos`]).
    issued: u64,
    /// Sizes of batches whose proposal this worker won, since the last
    /// [`ServiceWorker::take_batch_sizes`].
    batch_sizes: Vec<usize>,
}

impl<T: Sequential, S: RegisterSpace> ServiceWorker<'_, T, S> {
    /// This worker's process id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Routes and announces a burst of `(key, inner_op)` pairs — one
    /// announce publication per shard touched, the client half of flat
    /// combining. Returns the position of the first op (positions are
    /// consecutive within the burst, in the given order).
    ///
    /// The ops are *not* yet linearized; call [`ServiceWorker::drive`].
    pub fn enqueue_burst(&mut self, ops: &[(u64, u64)]) -> u64 {
        let _span = Span::enter(&self.svc.trace, "client.enqueue");
        let first_pos = self.issued;
        for (i, &(key, inner)) in ops.iter().enumerate() {
            let shard = self.svc.router.route(key);
            self.svc.trace.emit(
                self.pid,
                EventKind::ServiceEnqueue {
                    shard: shard as u32,
                    key,
                },
            );
            let lane = &mut self.lanes[shard];
            lane.ops.push(encode_op(key, inner));
            lane.meta.push((first_pos + i as u64, key));
        }
        for lane in &mut self.lanes {
            lane.busy = !lane.ops.is_empty();
        }
        self.each_busy_lane(None, |lane| {
            let first_seq = lane.session.start_announce(&lane.ops);
            let announced = lane.meta.iter().enumerate();
            lane.pending
                .extend(announced.map(|(i, &(pos, key))| (first_seq + i as u64, pos, key)));
            lane.ops.clear();
            lane.meta.clear();
        });
        self.issued += ops.len() as u64;
        first_pos
    }

    /// Convenience: enqueue a single operation.
    pub fn enqueue(&mut self, key: u64, inner: u64) -> u64 {
        self.enqueue_burst(&[(key, inner)])
    }

    /// Drives every shard this worker has pending ops on until they are
    /// all committed (combining with other workers' announced bursts
    /// along the way) and returns the completed operations, in enqueue
    /// order.
    pub fn drive(&mut self) -> Vec<OpResponse> {
        for lane in &mut self.lanes {
            lane.busy = lane.session.pending() > 0 || !lane.pending.is_empty();
        }
        self.each_busy_lane(Some("batch.drive"), |lane| lane.session.start_drive());
        let trace = &self.svc.trace;
        let mut out = Vec::new();
        for (shard, lane) in self.lanes.iter_mut().enumerate() {
            if !lane.busy {
                continue;
            }
            for (seq, resp) in lane.session.take_responses() {
                // A response whose seq predates our oldest pending entry
                // is an orphan announced by a previous incarnation of
                // this pid (the session resynchronises the announce
                // counter from the registers): it is committed on the
                // dead incarnation's behalf, but nobody here awaits it.
                if let Some(&(front_seq, pos, key)) = lane.pending.front() {
                    if front_seq == seq {
                        lane.pending.pop_front();
                        out.push(OpResponse {
                            pos,
                            key,
                            shard,
                            resp,
                        });
                    }
                }
            }
            for commit in lane.session.take_commits() {
                if commit.proposer == self.pid {
                    trace.emit(
                        self.pid,
                        EventKind::BatchCommit {
                            shard: shard as u32,
                            slot: commit.slot as u64,
                            size: commit.size as u64,
                        },
                    );
                    self.batch_sizes.push(commit.size);
                }
            }
        }
        out.sort_by_key(|r| r.pos);
        out
    }

    /// Starts every busy lane's session with `start` and serves it until
    /// it is done: all of them at once through [`multiplex`] when the
    /// service overlaps round trips (see [`ServiceWorker`]) and more than
    /// one lane is busy, else each in turn, started, served on its own
    /// and, on a traced service, inside a `span` of its own.
    fn each_busy_lane(&mut self, span: Option<&'static str>, start: impl Fn(&mut Lane<'_, T, S>)) {
        let svc = self.svc;
        let overlap = svc.round_trips && !svc.trace.is_enabled();
        if overlap && self.lanes.iter().filter(|lane| lane.busy).count() > 1 {
            let mut busy: Vec<_> = (svc.shards.iter().zip(&mut self.lanes))
                .filter(|(_, lane)| lane.busy)
                .map(|(shard, lane)| {
                    start(lane);
                    (shard.space(), &mut lane.session)
                })
                .collect();
            return multiplex(&*svc.space, &mut busy);
        }
        for lane in self.lanes.iter_mut().filter(|lane| lane.busy) {
            let _span = span.map(|label| Span::enter(&svc.trace, label));
            start(lane);
            lane.session.finish();
        }
    }

    /// Replays every shard's committed log without proposing anything.
    pub fn catch_up(&mut self) {
        for lane in &mut self.lanes {
            lane.session.catch_up();
        }
    }

    /// Takes the sizes of batches whose proposal this worker won since
    /// the last take — each committed batch is reported by exactly one
    /// worker, so concatenating all workers' takes counts every batch
    /// once.
    pub fn take_batch_sizes(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.batch_sizes)
    }
}

/// A busy shard as [`multiplex`] serves it: its tile of the shared space,
/// and its session.
type Busy<'a, 's, U, S> = (
    &'a SubSpace<Arc<S>>,
    &'a mut Session<'s, U, SubSpace<Arc<S>>>,
);

/// Serves every session in `lanes` until each is done, one group of
/// `space` per step: the step's group holds the next group of every
/// session that waits on one, lifted from its shard's tile into the
/// space's coordinates, and each session takes its own results back. A
/// session at `delay(Δ)` gets a deadline Δ away, with the injection point
/// `precise_delay` fires, and rejoins the steps once it has passed; the
/// worker waits only while every unfinished session is at a delay.
fn multiplex<U: Sequential, S: RegisterSpace>(space: &S, lanes: &mut [Busy<'_, '_, U, S>]) {
    let mut deadlines: Vec<Option<Instant>> = vec![None; lanes.len()];
    loop {
        let mut ready = Vec::with_capacity(lanes.len());
        let mut earliest: Option<Instant> = None;
        for ((_, session), deadline) in lanes.iter_mut().zip(&mut deadlines) {
            ready.push(loop {
                match session.wait() {
                    Wait::Group(between) => break Some(between),
                    Wait::Done => break None,
                    Wait::Delay(delta) => {
                        let now = Instant::now();
                        let until = *deadline.get_or_insert_with(|| {
                            // What `precise_delay` fires as a delay begins.
                            chaos::point(chaos::points::DELAY);
                            now + delta
                        });
                        if now < until {
                            earliest = Some(earliest.map_or(until, |e: Instant| e.min(until)));
                            break None;
                        }
                        *deadline = None;
                        session.resume(0);
                    }
                }
            });
        }
        if ready.iter().all(Option::is_none) {
            match earliest {
                Some(until) => {
                    precise_wait_until(until);
                    continue;
                }
                None => return,
            }
        }
        let mut betweens: Vec<_> = ready
            .iter()
            .map(|&between| move || between.map_or((), |b| b.fire()))
            .collect();
        let mut group: Vec<Access<'_>> = Vec::new();
        let mut ends = Vec::with_capacity(lanes.len());
        for (((tile, session), between), ready) in lanes.iter_mut().zip(&mut betweens).zip(&ready) {
            if ready.is_some() {
                group.extend(session.group(between).into_accesses().map(|mut access| {
                    tile.lift(&mut access);
                    access
                }));
            }
            ends.push(group.len());
        }
        space.access_all(&mut group);
        let mut seen = Vec::with_capacity(ends.len());
        let mut from = 0;
        for &end in &ends {
            seen.push(tfr_core::universal::seen(&group[from..end]));
            from = end;
        }
        drop(group);
        for (((_, session), ready), seen) in lanes.iter_mut().zip(&ready).zip(seen) {
            if ready.is_some() {
                session.resume(seen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use tfr_core::universal::Counter;

    /// Native memory that tapes every access as `(is_write, index)`.
    #[derive(Default)]
    struct Taped {
        cells: NativeSpace,
        tape: Mutex<Vec<(bool, u64)>>,
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

    /// The accesses, `(is_write, parent index)` in order, of one worker's
    /// burst over native memory with two shards of 4 slots: op 0 on shard 0,
    /// ops 1 and 2 on shard 1. Recorded before the shards' sessions became
    /// machines, when a worker drove its shards one after the other.
    const TWO_SHARD_TAPE: [(bool, u64); 30] = [
        // Shard 0 announces: its payload, then its counter with slot 0's probe.
        (true, 12),
        (true, 0),
        (false, 4),
        (false, 52),
        // Shard 1 announces two ops the same way.
        (true, 13),
        (true, 19),
        (true, 1),
        (false, 5),
        (false, 53),
        // Shard 0 decides: the record and the mark, the announcement, and
        // Algorithm 1's `x`, conditional `y`, `x[1, v̄]`, `decide` with `result`.
        (true, 2),
        (true, 8),
        (true, 6),
        (true, 28),
        (true, 148),
        (false, 124),
        (true, 124),
        (false, 172),
        (true, 52),
        (true, 4),
        // Shard 1 decides its two-op batch the same way.
        (true, 3),
        (true, 9),
        (true, 15),
        (true, 7),
        (true, 29),
        (true, 149),
        (false, 125),
        (true, 125),
        (false, 173),
        (true, 53),
        (true, 5),
    ];

    /// On native memory a worker serves its busy shards in turn, each
    /// session's groups on their own, so a 2-shard burst makes the
    /// accesses of [`TWO_SHARD_TAPE`], in its order.
    #[test]
    fn a_native_two_shard_burst_keeps_its_access_tape() {
        let space = Arc::new(Taped::default());
        let cfg = ServiceConfig {
            capacity_per_shard: 4,
            ..small_cfg(2, 1)
        };
        let svc = ObjectService::on(Arc::clone(&space), || Counter, &cfg);
        assert_eq!((svc.shard_of(0), svc.shard_of(2)), (0, 1));
        let mut worker = svc.worker(ProcId(0));
        space.tape.lock().unwrap().clear();
        worker.enqueue_burst(&[(0, 1), (2, 2), (2, 3)]);
        assert_eq!(worker.drive().len(), 3);
        assert_eq!(*space.tape.lock().unwrap(), TWO_SHARD_TAPE);
    }

    fn small_cfg(shards: usize, workers: usize) -> ServiceConfig {
        ServiceConfig {
            capacity_per_shard: 256,
            delta: Duration::from_micros(10),
            ..ServiceConfig::new(shards, workers)
        }
    }

    /// The multiplexer waits out `delay(Δ)` as deadlines. Two sessions of
    /// one shard (two processes), served together, send their groups in
    /// one step each and contend for slot 0's election: each writes its
    /// `x` before reading the other's, so both reach Algorithm 1's delay.
    /// The multiplexer serves them again only once Δ has passed, and they
    /// agree on process 0's batch, which holds both ops.
    #[test]
    fn multiplexed_sessions_wait_out_their_delays_as_deadlines() {
        let delta = Duration::from_millis(2);
        let svc = ObjectService::new(
            || Counter,
            &ServiceConfig {
                delta,
                ..small_cfg(1, 2)
            },
        );
        let shard = &svc.shards[0];
        let (mut a, mut b) = (shard.session(ProcId(0)), shard.session(ProcId(1)));
        a.announce(encode_op(7, 1));
        b.announce(encode_op(7, 2));
        a.start_drive();
        b.start_drive();
        let start = Instant::now();
        multiplex(
            &*svc.space,
            &mut [(shard.space(), &mut a), (shard.space(), &mut b)],
        );
        assert!(start.elapsed() >= delta, "a delay is waited out");
        for session in [&mut a, &mut b] {
            let commits: Vec<_> = session
                .take_commits()
                .map(|c| (c.proposer, c.size))
                .collect();
            assert_eq!(commits, [(ProcId(0), 2)]);
        }
        assert_eq!(a.take_responses().collect::<Vec<_>>(), [(0, 1)]);
        assert_eq!(b.take_responses().collect::<Vec<_>>(), [(0, 3)]);
    }

    #[test]
    fn bursts_commit_and_respond_in_enqueue_order() {
        let svc = ObjectService::new(|| Counter, &small_cfg(2, 1));
        let mut w = svc.worker(ProcId(0));
        let first = w.enqueue_burst(&[(0, 5), (1, 7), (0, 5), (2, 1)]);
        assert_eq!(first, 0);
        let out = w.drive();
        assert_eq!(out.len(), 4);
        assert_eq!(
            out[0],
            OpResponse {
                pos: 0,
                key: 0,
                shard: svc.shard_of(0),
                resp: 5
            }
        );
        assert_eq!(out[2].resp, 10, "same-key ops accumulate");
        assert_eq!(out[3].resp, 1, "distinct keys are independent");
        // A second burst continues the positions and totals.
        let first = w.enqueue_burst(&[(0, 1)]);
        assert_eq!(first, 4);
        assert_eq!(w.drive()[0].resp, 11);
    }

    #[test]
    fn shards_hold_disjoint_keys_and_audit_clean() {
        let svc = ObjectService::new(|| Counter, &small_cfg(3, 2));
        let mut a = svc.worker(ProcId(0));
        let mut b = svc.worker(ProcId(1));
        for key in 0..30u64 {
            a.enqueue(key, 1);
            b.enqueue(key, 2);
        }
        a.drive();
        b.drive();
        a.catch_up();
        b.catch_up();
        // Every key's total landed on exactly the routed shard.
        for key in 0..30u64 {
            let shard = svc.shard_of(key);
            for s in 0..svc.shards() {
                let got = svc.snapshot(s).get(&key).copied();
                if s == shard {
                    assert_eq!(got, Some(3), "key {key} total on its shard");
                } else {
                    assert_eq!(got, None, "key {key} must not leak to shard {s}");
                }
            }
        }
        for audit in svc.audit() {
            assert!(audit.complete(), "committed == announced on every shard");
        }
    }

    #[test]
    fn workers_combine_each_others_bursts() {
        let svc = ObjectService::new(|| Counter, &small_cfg(1, 4));
        std::thread::scope(|s| {
            for w in 0..4 {
                let svc = &svc;
                s.spawn(move || {
                    let mut worker = svc.worker(ProcId(w));
                    for _ in 0..8 {
                        worker.enqueue_burst(&[(0, 1), (1, 1)]);
                        worker.drive();
                    }
                });
            }
        });
        let state = svc.snapshot(0);
        assert_eq!(state.get(&0), Some(&32));
        assert_eq!(state.get(&1), Some(&32));
        let audit = svc.audit().remove(0);
        assert!(audit.complete());
        assert_eq!(audit.total_committed(), 64);
    }

    #[test]
    fn reincarnated_worker_tolerates_orphaned_announces() {
        let svc = ObjectService::new(|| Counter, &small_cfg(2, 2));
        // Incarnation 1 announces and dies before driving (the handle is
        // dropped with ops announced but uncommitted).
        let mut first = svc.worker(ProcId(0));
        first.enqueue_burst(&[(0, 5), (1, 7)]);
        drop(first);
        // Incarnation 2 resynchronises from the registers: its drive
        // commits the orphans (they count for the log) but reports only
        // its own ops.
        let mut second = svc.worker(ProcId(0));
        second.enqueue(0, 3);
        let out = second.drive();
        assert_eq!(out.len(), 1, "only the new incarnation's op returns");
        assert_eq!(out[0].key, 0);
        assert_eq!(out[0].resp, 8, "orphaned 5 applied before our 3");
        second.catch_up();
        for audit in svc.audit() {
            assert!(audit.complete(), "orphans commit, nothing is lost");
        }
        assert_eq!(svc.snapshot(svc.shard_of(1)).get(&1), Some(&7));
    }

    #[test]
    fn proposer_reports_each_batch_exactly_once() {
        let svc = ObjectService::new(|| Counter, &small_cfg(2, 2));
        let mut a = svc.worker(ProcId(0));
        let mut b = svc.worker(ProcId(1));
        a.enqueue_burst(&[(0, 1), (1, 1), (2, 1)]);
        a.drive();
        b.enqueue_burst(&[(3, 1)]);
        b.drive();
        let mut sizes: Vec<usize> = a
            .take_batch_sizes()
            .into_iter()
            .chain(b.take_batch_sizes())
            .collect();
        sizes.sort_unstable();
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 4, "every op in exactly one reported batch");
        let audits = svc.audit();
        let slots: usize = audits.iter().map(|a| a.slots_decided).sum();
        assert_eq!(sizes.len(), slots, "one report per decided slot");
    }
}
