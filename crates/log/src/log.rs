//! The replicated log substrate: a height-indexed sequence of
//! [`MultiConsensus`] instances over one shared register space, plus the
//! impure drivers ([`LogWorker`], [`LogReplica`]) that execute the pure
//! [`HeightStateMachine`]'s effects against it.
//!
//! # Register layout
//!
//! [`Layout`] places the registers in 8-cell lines of the parent space (a
//! [`NativeSpace`] chunk starts a 64-byte cache line), so that no line
//! holds two heights' cells, or an ack or a flag with anything else:
//!
//! * **acks** — applier `a`'s applied-prefix length at `8a`. Appliers are
//!   the `n` workers (lanes `0..n`) and the `R` passive replicas (lanes
//!   `n..n+R`); the cluster *floor* is the minimum over all lanes, and
//!   the pipeline window is enforced against it. Worker `p`'s **busy**
//!   flag follows at `8(n + R + p)`: 1 while it has batches pending.
//! * **blocks** — height `h` owns `L` cells from `8(2n + R) + h·L`. First
//!   the `hot = 1 + n + 9W` cells of its consensus instance that a lone
//!   decision touches: `result`, `announce[·]`, and rounds 1–2 of the `W
//!   = max(1, ⌈log₂ n⌉)` Algorithm 1 instances that agree on the winner's
//!   pid bit by bit (8-bit values, so `n ≤ 255`). Then the arena:
//!   proposer `p`'s op `j` at `hot + p·max_batch + j` (stored as `op +
//!   1`), and its batch size at `hot + n·max_batch + p`, **written last**
//!   (0 = unpublished). `L` rounds `hot + n·max_batch + n` up to whole
//!   lines.
//! * **overflow** — the later rounds, which only proposers that meet
//!   reach, tile the space past the blocks at stride `heights`.
//!
//! # Why a decided batch is always readable
//!
//! A proposer publishes its arena block (ops, then size) *before* it
//! proposes, and [`MultiConsensus`] announces a proposal before anything
//! can adopt it. So if height `h` decides proposer `w`, then `w`'s
//! announce happened, which happened after `w`'s publish completed —
//! any reader that sees the decision reads a fully published batch.
//! Within a run no `(height, proposer)` arena block is ever written
//! twice: a proposer proposes at a height at most once per incarnation,
//! decided heights are never re-proposed, and a recovered incarnation
//! reads its own size cells in the window before its first publish and
//! proposes *without* publishing where its predecessor left a block,
//! which commits the predecessor's batch (see [`LogWorker::resumed`]).
//!
//! # Ownership
//!
//! A height runs one Algorithm 1 instance per pid bit, so two proposers
//! that meet there almost always propose different bits, and both take
//! `delay(Δ)`. So height `h` has an **owner**, pid `h mod n`, and each
//! worker proposes its front batch at its own next height inside the
//! window without waiting for lower heights to decide
//! ([`HeightStateMachine`]): the owners of adjacent heights decide them
//! in parallel, each alone on Algorithm 1's uncontended path.
//! Application, the audit and the floor stay in height order.
//!
//! A worker proposes at a height it does not own only at its frontier,
//! and only when the owner's busy flag reads 0, or when the height has
//! stayed undecided for Δ ([`LogConfig::delta`]) since the worker first
//! waited on it. A timely owner therefore never loses its height, a
//! crashed or stalled one delays the others by at most Δ per height, and
//! wait-freedom is kept. Taking over is never needed for safety:
//! consensus decides one winner whoever proposes.
//!
//! **Why no run ends with a hole.** A worker proposes at `h` only while
//! it holds a batch in reserve for every height below `h` it does not
//! know decided. That count never grows, and each of the worker's wins
//! below `h` lowers it together with the reserve, so the worker's queue
//! cannot empty while a height below its highest win is undecided. Every
//! undecided frontier is proposed at in the end, by its owner or by a
//! worker that takes it over, and each batch wins at most one height,
//! so workers that drain their queues leave exactly the heights
//! `0..batches` decided. A crash loses the crashed incarnation's
//! reserve: the heights below its wins are then filled by other
//! workers' batches.
//!
//! **The log's order contract.** Heights apply in order, and a worker's
//! responses come in height order. A worker's batches that are pending
//! together may commit out of enqueue order: the front batch rides every
//! proposal, so a batch that won an own height ahead of a hole can be
//! followed by one that fills the hole by taking it over. A client that
//! needs its own order keeps one batch pending at a time.

use std::collections::VecDeque;
use std::num::NonZeroU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tfr_core::universal::{MultiConsensus, Probe, Sequential};
use tfr_registers::chaos::{self, points};
use tfr_registers::space::{Access, NativeSpace, RegisterSpace};
use tfr_registers::ProcId;
use tfr_telemetry::event::EventKind;
use tfr_telemetry::{Span, Trace};

use crate::audit::{chain_digest, AppliedEntry, LogAudit};
use crate::machine::{BatchId, Effect, HeightStateMachine};

/// Decision values are proposer pids, bounded at 8 bits, which caps the
/// cluster at 255. The bound sets no cost: a height runs one Algorithm 1
/// instance per bit of `n − 1`, not per bit of this.
const DECIDE_WIDTH: u32 = 8;

/// Shape of a [`ReplicatedLog`].
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Proposing workers (each is also an applier lane).
    pub n: usize,
    /// Passive replicas (applier lanes `n..n+replicas`).
    pub replicas: usize,
    /// Height capacity of the log.
    pub heights: usize,
    /// Maximum ops per batch.
    pub max_batch: usize,
    /// Pipeline window: how far the decision frontier may run ahead of
    /// the cluster applied floor (1 = sequential heights).
    pub window: u64,
    /// The `delay(Δ)` estimate handed to every height's consensus.
    pub delta: Duration,
}

impl LogConfig {
    /// A small default shape: `n` workers, one replica, sequential
    /// heights capacity 64, batches of up to 8 ops.
    pub fn new(n: usize, delta: Duration) -> LogConfig {
        LogConfig {
            n,
            replicas: 1,
            heights: 64,
            max_batch: 8,
            window: 4,
            delta,
        }
    }

    /// Total applier lanes (workers + replicas).
    pub fn lanes(&self) -> usize {
        self.n + self.replicas
    }
}

/// Cells per line: a [`NativeSpace`] chunk starts a 64-byte cache line.
const LINE: u64 = 8;

/// Where a [`ReplicatedLog`]'s registers sit in its parent space (see the
/// module docs, "Register layout").
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// The first block's first cell, a block's cells, and the consensus
    /// cells it keeps.
    blocks: u64,
    block: u64,
    hot: u64,
    heights: NonZeroU64,
}

impl Layout {
    /// The layout of a log of shape `cfg`; panics where
    /// [`ReplicatedLog::on`] does on `n` and `heights`.
    pub fn new(cfg: &LogConfig) -> Layout {
        assert!(cfg.n > 0 && cfg.n <= 255, "1..=255 proposers required");
        let n = cfg.n as u64;
        let hot = 1 + n + 9 * u64::from(u64::BITS - (n - 1).leading_zeros()).max(1);
        Layout {
            blocks: LINE * (cfg.lanes() as u64 + n),
            block: (hot + n * cfg.max_batch as u64 + n).div_ceil(LINE) * LINE,
            hot,
            heights: NonZeroU64::new(cfg.heights as u64).expect("a log needs at least one height"),
        }
    }

    /// Applier `lane`'s ack; past the lanes, lane `lanes + p` is worker
    /// `p`'s busy flag.
    pub fn ack(&self, lane: usize) -> u64 {
        LINE * lane as u64
    }

    /// Cell `i` of `height`'s arena.
    pub fn arena(&self, height: u64, i: u64) -> u64 {
        self.blocks + height * self.block + self.hot + i
    }

    /// `height`'s consensus cell `i`.
    pub fn election(&self, height: u64, i: u64) -> u64 {
        self.election_map(height).index(i)
    }

    fn election_map(&self, height: u64) -> ElectionMap {
        let (hot, heights) = (self.hot, self.heights);
        let block = self.blocks + height * self.block;
        let end = self.blocks + heights.get() * self.block;
        let overflow = end + height - hot * heights.get();
        ElectionMap {
            block,
            hot,
            overflow,
            heights,
        }
    }
}

/// One height's consensus cells: cell `i` below `hot` at `block + i`, in
/// its block, and from `hot` on at `overflow + i·heights`.
#[derive(Debug, Clone, Copy)]
struct ElectionMap {
    block: u64,
    hot: u64,
    overflow: u64,
    heights: NonZeroU64,
}

impl ElectionMap {
    /// The map `(base, stride)` of the region that holds cell `i`.
    #[inline(always)]
    fn region(&self, i: u64) -> (u64, NonZeroU64) {
        match i < self.hot {
            true => (self.block, NonZeroU64::MIN),
            false => (self.overflow, self.heights),
        }
    }

    fn index(&self, i: u64) -> u64 {
        let (base, stride) = self.region(i);
        base + i * stride.get()
    }
}

/// A height's consensus instance over the log's parent space, placed by
/// its [`ElectionMap`]. A group stays one parent group, each access lifted
/// by its first cell's region; an access that straddles both regions has
/// no one map, and goes cell by cell in its place.
struct HeightSpace<S> {
    parent: Arc<S>,
    map: ElectionMap,
}

impl<S: RegisterSpace> RegisterSpace for HeightSpace<S> {
    fn read(&self, index: u64) -> u64 {
        self.parent.read(self.map.index(index))
    }
    fn write(&self, index: u64, value: u64) {
        self.parent.write(self.map.index(index), value)
    }
    #[inline(always)]
    fn access_all(&self, group: &mut [Access<'_>]) {
        let (map, first) = (self.map, |a: &Access<'_>| a.cells().next().unwrap_or(0));
        let straddles = |a: &Access<'_>| first(a) < map.hot && a.cells().any(|c| c >= map.hot);
        if let Some(k) = group.iter().position(straddles) {
            return self.split(group, k);
        }
        for access in group.iter_mut() {
            let (base, stride) = map.region(first(access));
            access.lift(base, stride.get());
        }
        self.parent.access_all(group);
        for access in group.iter_mut() {
            // An empty run went by the block's map, as its first cell is 0.
            match first(access) < map.block + map.hot {
                true => access.unlift(map.block, NonZeroU64::MIN),
                false => access.unlift(map.overflow, map.heights),
            }
        }
    }
    fn round_trips(&self) -> bool {
        self.parent.round_trips()
    }
}

impl<S: RegisterSpace> HeightSpace<S> {
    /// Serves the accesses before `k` as a group, access `k` cell by cell,
    /// then the rest.
    #[cold]
    fn split(&self, group: &mut [Access<'_>], k: usize) {
        let (head, tail) = group.split_at_mut(k);
        let (straddler, rest) = tail.split_first_mut().expect("k is in the group");
        self.access_all(head);
        CellByCell(self).access_all(std::slice::from_mut(straddler));
        self.access_all(rest);
    }
}

/// A [`HeightSpace`]'s `read` and `write` alone, under the default
/// `access_all`: one cell at a time.
struct CellByCell<'a, S>(&'a HeightSpace<S>);

impl<S: RegisterSpace> RegisterSpace for CellByCell<'_, S> {
    fn read(&self, index: u64) -> u64 {
        self.0.read(index)
    }
    fn write(&self, index: u64, value: u64) {
        self.0.write(index, value)
    }
}

/// A multi-height replicated log over any [`RegisterSpace`]: height `h`
/// commits one proposer's batch via consensus, and every applier lane
/// applies committed batches in strict height order.
pub struct ReplicatedLog<T: Sequential, S: RegisterSpace = NativeSpace> {
    object: T,
    cfg: LogConfig,
    layout: Layout,
    space: Arc<S>,
    slots: Vec<MultiConsensus<HeightSpace<S>>>,
    trace: Trace,
}

impl<T: Sequential> ReplicatedLog<T> {
    /// A log over a fresh native shared-memory space.
    pub fn new(object: T, cfg: LogConfig) -> ReplicatedLog<T> {
        // Every block, and slack for the overflow.
        let capacity = Layout::new(&cfg).arena(cfg.heights as u64, 1024);
        ReplicatedLog::on(
            object,
            cfg,
            Arc::new(NativeSpace::with_capacity(capacity as usize)),
        )
    }
}

impl<T: Sequential, S: RegisterSpace> ReplicatedLog<T, S> {
    /// A log over an arbitrary fresh register space — e.g. a `tfr-net`
    /// quorum space. The algorithms are identical on every backend.
    ///
    /// # Panics
    ///
    /// Panics if the shape is degenerate (`n` 0 or > 255, no heights,
    /// zero-op batches, zero window).
    pub fn on(object: T, cfg: LogConfig, space: Arc<S>) -> ReplicatedLog<T, S> {
        let layout = Layout::new(&cfg);
        assert!(cfg.max_batch > 0, "batches must hold at least one op");
        assert!(cfg.window > 0, "a zero window can never commit");
        let slots = (0..cfg.heights as u64)
            .map(|height| {
                let (parent, map) = (Arc::clone(&space), layout.election_map(height));
                let height_space = Arc::new(HeightSpace { parent, map });
                MultiConsensus::on(height_space, cfg.n, DECIDE_WIDTH, cfg.delta)
            })
            .collect();
        ReplicatedLog {
            object,
            cfg,
            layout,
            space,
            slots,
            trace: Trace::default(),
        }
    }

    /// Attaches a telemetry trace (height decisions, applies, spans).
    pub fn with_trace(mut self, trace: Trace) -> ReplicatedLog<T, S> {
        self.trace = trace;
        self
    }

    /// The log's shape.
    pub fn config(&self) -> &LogConfig {
        &self.cfg
    }

    /// Where the log's registers sit in its space.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The replicated object's sequential specification.
    pub fn object(&self) -> &T {
        &self.object
    }

    /// The attached trace (disabled by default).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The decided winner at `height`, if any. Heights at or beyond the
    /// capacity read as undecided.
    pub fn decision(&self, height: u64) -> Option<usize> {
        self.slots
            .get(height as usize)?
            .decision()
            .map(|w| w as usize)
    }

    /// Publishes `pid`'s batch into its arena block at `height`: ops
    /// first, size last. Must precede the proposal at that height.
    fn publish(&self, pid: ProcId, height: u64, ops: &[u64]) {
        assert!(
            !ops.is_empty() && ops.len() <= self.cfg.max_batch,
            "batch size out of range"
        );
        let base = self
            .layout
            .arena(height, (pid.0 * self.cfg.max_batch) as u64);
        for (j, &op) in ops.iter().enumerate() {
            self.space.write(base + j as u64, op + 1);
        }
        self.space
            .write(self.size_cell(height, pid.0), ops.len() as u64);
    }

    /// Probes `height`'s consensus ([`MultiConsensus::probe`]): whether
    /// it has decided, and where a proposal there starts from. One
    /// register run.
    ///
    /// # Panics
    ///
    /// Panics if `height` exceeds the log's capacity.
    fn probe(&self, height: u64) -> Probe {
        self.slots
            .get(height as usize)
            .unwrap_or_else(|| panic!("log height capacity ({}) exceeded", self.cfg.heights))
            .probe()
    }

    /// Proposes `pid` at `height`, starting from `probe`, a probe of that
    /// height; blocks until the height decides and returns the winner.
    /// The proposal skips the standing-announcement read: the value is
    /// always `pid` itself, so an announcement a predecessor incarnation
    /// left at this height holds the same value.
    fn propose(&self, pid: ProcId, height: u64, probe: Probe) -> usize {
        self.slots[height as usize].propose_probed(pid, pid.0 as u64, probe, false) as usize
    }

    /// Where `pid`'s batch size at `height` sits.
    fn size_cell(&self, height: u64, pid: usize) -> u64 {
        let i = self.cfg.n * self.cfg.max_batch + pid;
        self.layout.arena(height, i as u64)
    }

    /// The size cell of `pid`'s arena block at `height`: the batch size
    /// once published, 0 before. One register read.
    fn published_size(&self, pid: ProcId, height: u64) -> u64 {
        self.space.read(self.size_cell(height, pid.0))
    }

    /// Reads the committed batch at a *decided* height.
    pub fn batch(&self, height: u64, winner: usize) -> Vec<u64> {
        let size = self.space.read(self.size_cell(height, winner));
        assert!(
            size > 0 && size as usize <= self.cfg.max_batch,
            "decided height {height} has no published batch — publish-before-propose violated"
        );
        let base = self
            .layout
            .arena(height, (winner * self.cfg.max_batch) as u64);
        (0..size).map(|j| self.space.read(base + j) - 1).collect()
    }

    /// Records applier `lane`'s applied-prefix length in its ack register.
    pub(crate) fn set_applied(&self, lane: usize, count: u64) {
        debug_assert!(lane < self.cfg.lanes());
        self.space.write(self.layout.ack(lane), count);
    }

    /// Records whether worker `pid` has batches pending (its busy flag,
    /// read by workers that wait on one of its heights).
    fn set_busy(&self, pid: ProcId, busy: bool) {
        self.space
            .write(self.layout.ack(self.cfg.lanes() + pid.0), u64::from(busy));
    }

    /// Whether worker `pid` has nothing pending, as its busy flag says.
    /// A worker that never enqueued is idle.
    fn idle(&self, pid: usize) -> bool {
        self.space.read(self.layout.ack(self.cfg.lanes() + pid)) == 0
    }

    /// The cluster-wide applied floor: min over every applier lane.
    pub fn applied_floor(&self) -> u64 {
        (0..self.cfg.lanes())
            .map(|lane| self.space.read(self.layout.ack(lane)))
            .min()
            .expect("at least one lane")
    }

    /// Applies the committed entry at `height` to `state`, extending the
    /// chained digest from `prev_digest`. Emits the `LogApply` event and
    /// fires the `log.apply-entry` chaos point. Returns the applied
    /// entry and the `(op, response)` pairs of the batch.
    pub(crate) fn apply_height(
        &self,
        lane_pid: ProcId,
        height: u64,
        state: &mut T::State,
        prev_digest: u64,
    ) -> (AppliedEntry, Vec<(u64, u64)>) {
        chaos::point(points::LOG_APPLY);
        let _span = Span::enter(&self.trace, "log.apply");
        let winner = self.decision(height).expect("applying an undecided height");
        let ops = self.batch(height, winner);
        let mut resps = Vec::with_capacity(ops.len());
        for &op in &ops {
            resps.push((op, self.object.apply(state, op)));
        }
        let digest = chain_digest(prev_digest, height, winner as u64, &ops);
        self.trace
            .emit(lane_pid, EventKind::LogApply { height, digest });
        (
            AppliedEntry {
                height,
                winner,
                digest,
            },
            resps,
        )
    }

    /// Replays the decided prefix straight from the registers, without
    /// telemetry or chaos points, invoking `on_entry` per height.
    fn replay(&self, mut on_entry: impl FnMut(u64, usize, &[u64])) -> Vec<AppliedEntry> {
        let mut entries = Vec::new();
        let mut digest = 0;
        let mut h = 0u64;
        while let Some(winner) = self.decision(h) {
            let ops = self.batch(h, winner);
            on_entry(h, winner, &ops);
            digest = chain_digest(digest, h, winner as u64, &ops);
            entries.push(AppliedEntry {
                height: h,
                winner,
                digest,
            });
            h += 1;
        }
        entries
    }

    /// The canonical applied sequence reconstructed from the registers,
    /// and the total op count across it.
    pub fn truth(&self) -> (Vec<AppliedEntry>, u64) {
        let mut total_ops = 0;
        let entries = self.replay(|_, _, ops| total_ops += ops.len() as u64);
        (entries, total_ops)
    }

    /// Audits applier `lanes` against the register ground truth: every
    /// lane must be an in-order prefix of the one canonical sequence.
    pub fn audit(&self, lanes: &[&[AppliedEntry]]) -> LogAudit {
        let (truth, total_ops) = self.truth();
        LogAudit::check(truth, total_ops, lanes)
    }
}

/// A proposing worker: owns a [`HeightStateMachine`], executes its
/// effects against the log, and applies committed entries in height
/// order (applier lane = its pid).
pub struct LogWorker<T: Sequential, S: RegisterSpace = NativeSpace> {
    log: Arc<ReplicatedLog<T, S>>,
    pid: ProcId,
    machine: HeightStateMachine,
    /// The pending batches' payloads, in the machine's queue order: the
    /// front one is batch `front`, the one every proposal carries.
    payloads: VecDeque<Vec<u64>>,
    front: BatchId,
    /// The clock the machine's takeover bound is measured on.
    epoch: Instant,
    state: T::State,
    digest: u64,
    applied: Vec<AppliedEntry>,
    responses: Vec<(u64, u64)>,
}

impl<T: Sequential, S: RegisterSpace> LogWorker<T, S> {
    /// A fresh worker for proposer `pid`.
    pub fn new(log: Arc<ReplicatedLog<T, S>>, pid: ProcId) -> LogWorker<T, S> {
        assert!(pid.0 < log.cfg.n, "worker pid out of range");
        let state = log.object.initial();
        let machine = HeightStateMachine::new(pid.0, log.cfg.n, log.cfg.window, log.cfg.delta);
        LogWorker {
            log,
            pid,
            machine,
            payloads: VecDeque::new(),
            front: 0,
            epoch: Instant::now(),
            state,
            digest: 0,
            applied: Vec::new(),
            responses: Vec::new(),
        }
    }

    /// A recovered incarnation of proposer `pid`: resynchronises from
    /// the registers by replaying the decided prefix into a fresh local
    /// state, then resumes with an empty pending queue. Batches the old
    /// incarnation enqueued but never committed are lost (the client
    /// re-submits anything unacknowledged); batches it *did* commit are
    /// in the replayed prefix, exactly once.
    ///
    /// The old incarnation may have published blocks at undecided
    /// heights, ahead of the frontier too, before it crashed. The new one
    /// reads its size cells over the window past the frontier, the only
    /// heights where its predecessor could have published, and never
    /// publishes there again: it proposes there without publishing, which
    /// commits the predecessor's batch (committing a batch twice is
    /// legal; overwriting a block another proposer may have adopted is
    /// not). Responses come only for this incarnation's own batches.
    pub fn resumed(log: Arc<ReplicatedLog<T, S>>, pid: ProcId) -> LogWorker<T, S> {
        let mut worker = LogWorker::new(log, pid);
        let log = Arc::clone(&worker.log);
        let mut state = log.object.initial();
        let applied = log.replay(|_, _, ops| {
            for &op in ops {
                log.object.apply(&mut state, op);
            }
        });
        let frontier = applied.len() as u64;
        worker.machine = worker.machine.resumed(frontier, frontier);
        let end = (frontier + log.cfg.window).min(log.cfg.heights as u64);
        for height in frontier..end {
            if log.published_size(pid, height) != 0 {
                worker.machine.observe_published(height);
            }
        }
        log.set_applied(pid.0, frontier);
        log.set_busy(pid, false);
        worker.state = state;
        worker.digest = applied.last().map(|e| e.digest).unwrap_or(0);
        worker.applied = applied;
        worker
    }

    /// Hands the worker a batch of ops to commit; returns its handle.
    pub fn enqueue(&mut self, ops: &[u64]) -> BatchId {
        assert!(
            !ops.is_empty() && ops.len() <= self.log.cfg.max_batch,
            "batch size out of range"
        );
        if self.payloads.is_empty() {
            self.log.set_busy(self.pid, true);
        }
        let id = self.front + self.payloads.len() as BatchId;
        self.payloads.push_back(ops.to_vec());
        self.machine.enqueue(id);
        id
    }

    /// Batches enqueued but not yet committed.
    pub fn pending(&self) -> usize {
        self.machine.pending_len()
    }

    /// This worker's decision frontier: the lowest height it does not
    /// know decided.
    pub fn frontier(&self) -> u64 {
        self.machine.frontier()
    }

    /// This worker's applied-prefix length.
    pub fn applied_len(&self) -> u64 {
        self.machine.applied()
    }

    /// The entries this worker has applied, in application order.
    pub fn applied_log(&self) -> &[AppliedEntry] {
        &self.applied
    }

    /// The replicated object's local state (derived purely from the
    /// applied prefix).
    pub fn state(&self) -> &T::State {
        &self.state
    }

    /// `(op, response)` pairs for this incarnation's own committed ops,
    /// drained. They come in height order, which is the order of
    /// application, not of enqueueing: batches pending together may
    /// commit out of enqueue order (see the module docs on ownership).
    pub fn take_responses(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.responses)
    }

    /// Applies the next decided-but-unapplied height locally.
    fn apply_next(&mut self) {
        let h = self.machine.applied();
        let (entry, resps) = self
            .log
            .apply_height(self.pid, h, &mut self.state, self.digest);
        if entry.winner == self.pid.0 && !self.machine.predecessor_published(h) {
            self.responses.extend(resps);
        }
        self.digest = entry.digest;
        self.applied.push(entry);
        self.machine.observe_applied(h);
        self.log.set_applied(self.pid.0, self.machine.applied());
    }

    /// Proposes at `height`, publishing `batch` first (the front batch)
    /// or, without one, the predecessor's block already there; then
    /// applies what the decision made applicable.
    fn propose(&mut self, height: u64, batch: Option<BatchId>) {
        let probe = self.log.probe(height);
        if probe.decision().is_some() {
            // Another proposer took the height; the front batch rides
            // the next proposal.
            self.machine.observe_decided(height, false);
            return;
        }
        chaos::point(points::LOG_PROPOSE);
        // A local clone keeps the span borrow off `self` so the in-span
        // applies below can borrow it mutably.
        let trace = self.log.trace.clone();
        let span = Span::enter(&trace, "log.propose");
        let size = match batch {
            Some(batch) => {
                debug_assert_eq!(batch, self.front, "the front batch rides");
                let ops = &self.payloads[0];
                self.log.publish(self.pid, height, ops);
                ops.len() as u64
            }
            None => self.log.published_size(self.pid, height),
        };
        let winner = {
            let _decide = Span::enter(&trace, "height.decide");
            self.log.propose(self.pid, height, probe)
        };
        if winner == self.pid.0 {
            self.log.trace.emit(
                self.pid,
                EventKind::HeightDecide {
                    height,
                    winner: winner as u64,
                    size,
                },
            );
        }
        let won = winner == self.pid.0 && batch.is_some();
        self.machine.observe_decided(height, won);
        if won {
            self.payloads.pop_front();
            self.front += 1;
            if self.payloads.is_empty() {
                self.log.set_busy(self.pid, false);
            }
        }
        // Apply inside the propose span so the causal chain
        // log.propose → height.decide → log.apply is visible in the
        // trace.
        while self.machine.applied() < self.machine.frontier() {
            self.apply_next();
        }
        drop(span);
    }

    /// Executes one round of the state machine's effects. Returns
    /// whether anything advanced (false = idle; the caller may yield).
    pub fn pump(&mut self) -> bool {
        let mut progressed = false;
        for effect in self.machine.next_effects() {
            match effect {
                Effect::Apply { .. } => {
                    self.apply_next();
                    progressed = true;
                }
                Effect::Publish { height, batch } => {
                    self.propose(height, Some(batch));
                    progressed = true;
                }
                Effect::Propose { height } => {
                    self.propose(height, None);
                    progressed = true;
                }
                Effect::Poll { height } => {
                    if self.log.decision(height).is_some() {
                        self.machine.observe_decided(height, false);
                        progressed = true;
                    }
                }
                Effect::Await { height, owner } => {
                    if self.log.decision(height).is_some() {
                        self.machine.observe_decided(height, false);
                        progressed = true;
                    } else {
                        let idle = self.log.idle(owner);
                        self.machine
                            .observe_waiting(height, idle, self.epoch.elapsed());
                    }
                }
                Effect::RefreshFloor => {
                    let before = self.machine.in_flight();
                    self.machine.observe_floor(self.log.applied_floor());
                    progressed |= self.machine.in_flight() != before;
                }
            }
        }
        progressed
    }

    /// Pumps until every enqueued batch has committed and the local
    /// applied prefix has caught up with the frontier.
    ///
    /// When more than `window` batches are pending, progress requires
    /// every other applier lane (workers *and* replicas) to keep
    /// advancing the floor concurrently — in a single-threaded setting,
    /// interleave [`LogWorker::pump`] with the other lanes' polls
    /// instead.
    pub fn drive(&mut self) {
        while self.machine.pending_len() > 0 || self.machine.applied() < self.machine.frontier() {
            if !self.pump() {
                std::thread::yield_now();
            }
        }
    }

    /// Keeps replicating (polling and applying other proposers'
    /// decisions) until `target` heights are applied locally.
    pub fn sync_to(&mut self, target: u64) {
        while self.machine.applied() < target {
            if !self.pump() {
                std::thread::yield_now();
            }
        }
    }
}

/// A passive replica: applies committed entries in height order on its
/// own applier lane (`n + rid`), never proposes.
pub struct LogReplica<T: Sequential, S: RegisterSpace = NativeSpace> {
    log: Arc<ReplicatedLog<T, S>>,
    pid: ProcId,
    state: T::State,
    next: u64,
    digest: u64,
    applied: Vec<AppliedEntry>,
}

impl<T: Sequential, S: RegisterSpace> LogReplica<T, S> {
    /// Replica `rid`'s applier, on lane `n + rid`.
    pub fn new(log: Arc<ReplicatedLog<T, S>>, rid: usize) -> LogReplica<T, S> {
        assert!(rid < log.cfg.replicas, "replica id out of range");
        let pid = ProcId(log.cfg.n + rid);
        let state = log.object.initial();
        LogReplica {
            log,
            pid,
            state,
            next: 0,
            digest: 0,
            applied: Vec::new(),
        }
    }

    /// Applies every currently decided, not-yet-applied height in
    /// order; returns how many entries were applied.
    pub fn poll(&mut self) -> usize {
        let mut applied = 0;
        while self.next < self.log.cfg.heights as u64 && self.log.decision(self.next).is_some() {
            let (entry, _) =
                self.log
                    .apply_height(self.pid, self.next, &mut self.state, self.digest);
            self.digest = entry.digest;
            self.applied.push(entry);
            self.next += 1;
            self.log.set_applied(self.pid.0, self.next);
            applied += 1;
        }
        applied
    }

    /// This replica's applied-prefix length.
    pub fn applied_len(&self) -> u64 {
        self.next
    }

    /// The entries this replica has applied, in application order.
    pub fn applied_log(&self) -> &[AppliedEntry] {
        &self.applied
    }

    /// The replicated object's local state.
    pub fn state(&self) -> &T::State {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_core::universal::{Counter, FifoQueue};
    use tfr_registers::space::WriteKind;

    fn cfg(n: usize) -> LogConfig {
        LogConfig {
            n,
            replicas: 2,
            heights: 32,
            max_batch: 4,
            window: 2,
            delta: Duration::from_micros(10),
        }
    }

    /// Shared memory that tapes every group it is handed, as its
    /// accesses' cells; `read` and `write` go untaped.
    #[derive(Default)]
    struct Tape {
        cells: NativeSpace,
        groups: std::sync::Mutex<Vec<Vec<Vec<u64>>>>,
    }

    impl RegisterSpace for Tape {
        fn read(&self, index: u64) -> u64 {
            self.cells.read(index)
        }
        fn write(&self, index: u64, value: u64) {
            self.cells.write(index, value)
        }
        fn access_all(&self, group: &mut [Access<'_>]) {
            let taped = group.iter().map(|a| a.cells().collect()).collect();
            self.groups.lock().unwrap().push(taped);
            self.cells.access_all(group)
        }
    }

    /// A height's space maps cell `i` to [`Layout::election`]: its block's
    /// consecutive cells below `hot`, the stride-`heights` overflow from
    /// there. A group reaches the parent as one group, each run as one
    /// parent run, and comes back in local coordinates; a run that
    /// straddles the two regions is served cell by cell in its place.
    #[test]
    fn a_height_space_maps_cells_and_lifts_a_group_whole() {
        let layout = Layout::new(&cfg(2));
        let parent = Arc::new(Tape::default());
        let (height, hot) = (5, layout.hot);
        let space = HeightSpace {
            parent: Arc::clone(&parent),
            map: layout.election_map(height),
        };
        let at = |i| layout.election(height, i);
        assert_eq!((at(1) - at(0), at(hot + 1) - at(hot)), (1, 32));
        space.write(0, 6);
        space.write(hot + 2, 8);
        assert_eq!([at(0), at(hot + 2)].map(|i| parent.read(i)), [6, 8]);
        let (mut out, mut nothing) = ([0; 2], || ());
        let mut group = [
            Access::read_run(0, 3, &mut out),
            Access::write_run(hot, 1, &[5, 6], WriteKind::Owned),
            Access::write_if_unset(hot + 2, 9, &mut nothing),
        ];
        space.access_all(&mut group);
        assert!(matches!(group[2], Access::WriteIfUnset { seen: 8, .. }));
        let cells: Vec<Vec<u64>> = group.iter().map(|a| a.cells().collect()).collect();
        assert_eq!(cells, [vec![0, 3], vec![hot, hot + 1], vec![hot + 2]]);
        assert_eq!(out, [6, 0]);
        let lifted = [
            vec![at(0), at(3)],
            vec![at(hot), at(hot + 1)],
            vec![at(hot + 2)],
        ];
        assert_eq!(
            parent.groups.lock().unwrap().drain(..).collect::<Vec<_>>(),
            [lifted]
        );

        let mut out = [0; 3];
        let mut group = [
            Access::write_run(1, 1, &[4], WriteKind::Agreed),
            Access::read_run(hot - 1, 1, &mut out),
            Access::read_run(hot + 4, 1, &mut []),
        ];
        space.access_all(&mut group);
        assert!(matches!(group[2], Access::ReadRun { base, .. } if base == hot + 4));
        assert_eq!(out, [0, 5, 6], "the straddling run read cell by cell");
        assert_eq!(
            parent.groups.lock().unwrap().drain(..).collect::<Vec<_>>(),
            [vec![vec![at(1)]], vec![vec![]]],
            "the accesses around it went out as groups, in order"
        );
    }

    #[test]
    fn solo_worker_commits_and_applies_in_order() {
        let log = Arc::new(ReplicatedLog::new(Counter, cfg(1)));
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        w.enqueue(&[5, 7]);
        w.enqueue(&[1]);
        w.drive();
        assert_eq!(*w.state(), 13);
        assert_eq!(
            w.take_responses(),
            vec![(5, 5), (7, 12), (1, 13)],
            "responses carry the running total in commit order"
        );
        let heights: Vec<u64> = w.applied_log().iter().map(|e| e.height).collect();
        assert_eq!(heights, vec![0, 1]);
    }

    #[test]
    fn replicas_converge_to_the_worker_prefix() {
        let log = Arc::new(ReplicatedLog::new(Counter, cfg(1)));
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        let mut r0 = LogReplica::new(Arc::clone(&log), 0);
        let mut r1 = LogReplica::new(Arc::clone(&log), 1);
        for b in 0..6u64 {
            w.enqueue(&[b + 1]);
        }
        // Single-threaded: interleave the lanes so the replicas keep the
        // applied floor (and with it the pipeline window) moving.
        while w.pending() > 0 || w.applied_len() < 6 {
            w.pump();
            r0.poll();
            r1.poll();
        }
        r0.poll();
        r1.poll();
        assert_eq!(*r0.state(), 21);
        assert_eq!(*r1.state(), 21);
        let audit = log.audit(&[w.applied_log(), r0.applied_log(), r1.applied_log()]);
        assert!(audit.converged(), "{:?}", audit.divergence);
        assert_eq!(audit.heights_decided, 6);
        assert_eq!(audit.total_ops, 6);
    }

    #[test]
    fn contending_workers_serialize_every_batch_exactly_once() {
        // No passive replicas: the worker threads themselves are the
        // applier lanes advancing the floor.
        let mut c = cfg(3);
        c.replicas = 0;
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        let total: u64 = std::thread::scope(|s| {
            (0..3)
                .map(|p| {
                    let log = Arc::clone(&log);
                    s.spawn(move || {
                        let mut w = LogWorker::new(log, ProcId(p));
                        for b in 0..4u64 {
                            w.enqueue(&[100 * p as u64 + b + 1]);
                        }
                        w.drive();
                        w.sync_to(12);
                        assert_eq!(w.applied_len(), 12);
                        *w.state()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<u64>()
        });
        let expected: u64 = (0..3)
            .flat_map(|p| (0..4).map(move |b| 100 * p + b + 1))
            .sum();
        // All three workers applied all 12 batches: same final total.
        assert_eq!(total, 3 * expected);
        let (truth, total_ops) = log.truth();
        assert_eq!(truth.len(), 12);
        assert_eq!(total_ops, 12);
    }

    #[test]
    fn a_busy_owner_that_never_proposes_is_taken_over_after_delta() {
        let mut c = cfg(2);
        c.replicas = 0;
        c.delta = Duration::from_millis(20);
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        // Pid 0 owns height 0, has a batch pending, publishes it there,
        // and never proposes.
        let mut owner = LogWorker::new(Arc::clone(&log), ProcId(0));
        owner.enqueue(&[9]);
        log.publish(ProcId(0), 0, &[9]);
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(1));
        w.enqueue(&[4]);
        let start = Instant::now();
        while w.pending() > 0 {
            w.pump();
        }
        assert!(start.elapsed() >= c.delta, "pid 1 waited Δ for pid 0");
        assert_eq!(log.decision(0), Some(1), "then proposed and won");
        assert_eq!(w.take_responses(), vec![(4, 4)]);
    }

    #[test]
    fn a_resumed_worker_commits_its_predecessors_block_instead_of_rewriting_it() {
        let mut c = cfg(2);
        c.replicas = 0;
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        // The predecessor published at height 0 and crashed before the
        // height decided.
        log.publish(ProcId(0), 0, &[9]);
        let mut w = LogWorker::resumed(Arc::clone(&log), ProcId(0));
        w.enqueue(&[4]);
        w.drive();
        assert_eq!(log.decision(0), Some(0));
        assert_eq!(log.batch(0, 0), vec![9], "the predecessor's block stands");
        let (truth, _) = log.truth();
        let fours: Vec<u64> = truth
            .iter()
            .filter(|e| log.batch(e.height, e.winner) == [4])
            .map(|e| e.height)
            .collect();
        assert_eq!(fours, vec![1], "[4] commits exactly once, later");
        assert_eq!(*w.state(), 13);
        assert_eq!(
            w.take_responses(),
            vec![(4, 13)],
            "only this incarnation's batch is answered"
        );
    }

    #[test]
    fn queue_object_replicates_fifo_order() {
        let log = Arc::new(ReplicatedLog::new(FifoQueue, cfg(1)));
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        w.enqueue(&[FifoQueue::enqueue_op(11), FifoQueue::enqueue_op(22)]);
        w.enqueue(&[FifoQueue::DEQUEUE, FifoQueue::DEQUEUE, FifoQueue::DEQUEUE]);
        w.drive();
        let resps: Vec<u64> = w.take_responses().into_iter().map(|(_, r)| r).collect();
        // Dequeues return value + 1 (0 = empty): FIFO order, then empty.
        assert_eq!(resps[2..], [12, 23, 0]);
    }

    #[test]
    fn resumed_incarnation_replays_the_committed_prefix() {
        let mut c = cfg(1);
        c.replicas = 0; // the worker is the only applier lane
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        w.enqueue(&[3]);
        w.enqueue(&[4]);
        w.drive();
        drop(w); // the incarnation "crashes"
        let mut w2 = LogWorker::resumed(Arc::clone(&log), ProcId(0));
        assert_eq!(*w2.state(), 7, "recovered state replays the prefix");
        assert_eq!(w2.frontier(), 2);
        w2.enqueue(&[10]);
        w2.drive();
        assert_eq!(*w2.state(), 17);
        let audit = log.audit(&[w2.applied_log()]);
        assert!(audit.converged(), "{:?}", audit.divergence);
    }

    #[test]
    fn window_one_keeps_frontier_at_the_floor() {
        // With a replica that never polls, a window-1 worker must stall
        // after one uncommitted height rather than run ahead.
        let mut c = cfg(1);
        c.window = 1;
        c.replicas = 1;
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        let mut r = LogReplica::new(Arc::clone(&log), 0);
        w.enqueue(&[1]);
        w.enqueue(&[2]);
        for _ in 0..64 {
            w.pump();
        }
        assert_eq!(w.frontier(), 1, "window 1 stalls until the replica acks");
        r.poll();
        w.drive();
        assert_eq!(w.frontier(), 2);
    }
}
