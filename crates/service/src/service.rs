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
//! * Both steps act on every busy shard through one loop. When the
//!   space's accesses are network round trips
//!   ([`RegisterSpace::round_trips`], the quorum backend) and no trace is
//!   attached, a worker with more than one busy shard keeps their rounds
//!   in flight together: it drives the first busy shard itself and each
//!   other one on a scoped helper thread that joins the worker's chaos
//!   incarnation. A burst then waits for its slowest shard's rounds, not
//!   for the sum of them. On native memory, or with a trace attached, the
//!   loop takes the shards in turn and spawns nothing.
//!
//! Telemetry: every enqueue emits [`EventKind::ServiceEnqueue`], and
//! every batch whose proposal *this* worker won emits one
//! [`EventKind::BatchCommit`] (the proposer emits, so each batch is
//! counted exactly once across the fleet).

use crate::keyed::{encode_op, Keyed};
use crate::router::Router;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;
use tfr_core::universal::{LogAudit, Sequential, Session, Universal};
use tfr_registers::chaos::{self, Incarnation};
use tfr_registers::space::{NativeSpace, RegisterSpace, SubSpace};
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
        let shards = SubSpace::tile(space, cfg.shards as u64)
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
/// (`each_busy_lane`). Over a space whose accesses are round trips
/// ([`RegisterSpace::round_trips`]), with no trace attached and more than
/// one shard busy, the worker keeps the shards' quorum rounds in flight
/// together: it drives the first busy shard itself and each other on a
/// scoped helper thread, which joins the worker's chaos incarnation
/// ([`Incarnation`]). The shards are disjoint register regions and
/// linearizability is local, so overlapping them changes no protocol
/// argument; a decision still costs its rounds, on each shard. Otherwise
/// the loop runs the shards in turn and spawns nothing. A traced service
/// stays in turn because the worker's telemetry lane takes one writer.
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
        self.each_busy_lane(|lane| {
            let first_seq = lane.session.announce_burst(&lane.ops);
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
        let trace = &self.svc.trace;
        self.each_busy_lane(|lane| {
            let _span = Span::enter(trace, "batch.drive");
            lane.session.drive_pending();
        });
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

    /// Runs `work` on every busy lane: in turn on this thread, or, when
    /// the service overlaps round trips (see [`ServiceWorker`]) and more
    /// than one lane is busy, the first here and each other on a scoped
    /// helper thread in this worker's chaos incarnation. The helpers are
    /// joined explicitly and [`chaos::rejoin`] re-raises what stopped any
    /// of them: a genuine panic with its own payload, else a crash.
    fn each_busy_lane(&mut self, work: impl Fn(&mut Lane<'_, T, S>) + Sync) {
        let overlap = self.svc.round_trips && !self.svc.trace.is_enabled();
        let mut busy = self.lanes.iter_mut().filter(|lane| lane.busy).peekable();
        let Some(first) = busy.next() else { return };
        if !overlap || busy.peek().is_none() {
            work(first);
            busy.for_each(work);
            return;
        }
        let incarnation = Incarnation::current();
        let (work, incarnation) = (&work, &incarnation);
        std::thread::scope(|s| {
            let helpers: Vec<_> = busy
                .map(|lane| s.spawn(move || incarnation.enter(|| work(lane))))
                .collect();
            let own = panic::catch_unwind(AssertUnwindSafe(|| work(first)));
            chaos::rejoin(std::iter::once(own).chain(helpers.into_iter().map(|h| h.join())));
        });
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

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_core::universal::Counter;

    fn small_cfg(shards: usize, workers: usize) -> ServiceConfig {
        ServiceConfig {
            capacity_per_shard: 256,
            delta: Duration::from_micros(10),
            ..ServiceConfig::new(shards, workers)
        }
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
