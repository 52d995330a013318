//! Universality (§1.4): from the wait-free time-resilient binary consensus
//! of Algorithm 1, build (a) **multivalued consensus** and (b) a
//! Herlihy-style **universal construction** — a wait-free, time-resilient
//! implementation of *any* object with a sequential specification, using
//! atomic registers only.
//!
//! The paper invokes Herlihy's universality result \[24\]: since Algorithm 1
//! is wait-free consensus from registers, every sequential object has a
//! wait-free register-only implementation that is resilient to timing
//! failures (w.r.t. *some* ψ). This module makes that concrete.
//!
//! # Multivalued from binary
//!
//! [`MultiConsensus`] agrees on the *winner's pid* bit by bit (one
//! Algorithm 1 instance per pid bit, most significant first — `⌈log₂ n⌉`
//! of them, however wide the values) and then returns the value the
//! winner announced: the textbook construction, written once as
//! [`ElectionSpec`], which the model checker proves and the object runs.
//!
//! # The universal object
//!
//! [`Universal`] keeps a log of consensus *slots* over an arbitrary
//! [`RegisterSpace`] — every piece of its state (announce counters, op
//! payloads, batch records, the slots themselves) lives in registers, so
//! the same object runs over shared memory or a quorum-emulated space.
//!
//! Slot `s` no longer decides a single `(pid, seq)`: it decides a
//! **batch** — a record, published in the proposer's append-only arena
//! before the proposal, listing many announced operations. One consensus
//! decision therefore commits a whole batch (*flat combining*), which is
//! what amortizes quorum round trips at service scale. The combining
//! rule preserves the helping discipline: a combiner building a batch
//! for slot `s` scans announce counters starting at process `s mod n`,
//! so every announced operation gains batch priority at least once every
//! `n` slots — wait-freedom survives the refactor.
//!
//! Clients drive the object through a per-process [`Session`], which
//! replays the decided log incrementally (the per-op full scans of the
//! old `invoke` path became per-*proposal* scans; a quiet object costs a
//! session one register read per poll). [`Universal::invoke`] remains as
//! the compatible one-shot wrapper. A session is a machine that waits on
//! one group of register accesses at a time, so a caller that drives
//! several objects over one space (the sharded service) can send their
//! groups together, in shared rounds (see [`Session`]).
//!
//! # Register groups
//!
//! Most of a decision's register accesses are batching bookkeeping on
//! independent cells — op payloads, arena records and their read-back —
//! and a [`Session`] issues each run of them as one register run
//! ([`RegisterSpaceExt::read_run`] / [`RegisterSpaceExt::write_run`]).
//! Beyond runs, it sends accesses as one **group**
//! ([`RegisterSpace::access_all`]), which a quorum backend serves in the
//! round trips of a single access, one message per replica per phase. A
//! group promises per-cell atomicity, and across its accesses only the
//! order of its owned and agreed writes (see [Ordered groups](#ordered-groups)),
//! so only accesses whose mutual order no reader relies on, or relies on
//! only in that way, are grouped. Linearizability is local: concurrent
//! operations on different cells compose. One `svc_quorum` decision
//! (n = 1) costs these quorum rounds:
//!
//! | | payloads | counter | probe | record, mark | announce | Algorithm 1 | `result` | total |
//! |---|---|---|---|---|---|---|---|---|
//! | each access its own round | 1 | 1 | 1 | 2 | 1 | 5 | 1 | **12** |
//! | grouped | 1 | 1, the probe shares it | 0 | 1 | 1 | 5, `decide` shares its round with `result` | 0 | **9** |
//! | grouped, ordered | 1, with the counter and the probe | 0 | 0 | 1, with the announcement | 0 | 5, as above | 0 | **7** |
//!
//! The three grouped pairs, and why no reader orders them:
//!
//! * **Counter ∥ probe.** `announce_burst` sends the announce counter in
//!   one group with the next slot's [`MultiConsensus::probe`], and
//!   [`Session::drive_pending`] starts from that cached probe. A read may
//!   come as early as the caller likes: an early read of `result` and
//!   `decide` is what a slow process makes. The probe rides with the
//!   counter rather than the payloads so that shared memory, which runs a
//!   group in order, still probes after announcing.
//! * **Record ∥ mark.** `publish_batch` sends the record run and the
//!   arena mark as one group of owned stores (with the announcement,
//!   ordered after both, see below). The mark need only precede
//!   the proposal: no reader dereferences an arena offset until a slot's
//!   decision names it, and the mark only tells a recovered incarnation
//!   where the next record goes (see `publish_batch`).
//! * **`decide` ∥ `result`.** When the last pid bit's instance decides
//!   the proposer's own bit (always, on the solo path), Algorithm 1's
//!   agreed `decide` and the agreed `result` go out as one group (the
//!   election's label). Every write to either cell carries the common
//!   decision, and no reader of `result` goes on to read that `decide`.
//!
//! # Ordered groups
//!
//! A space keeps the order of a group's owned and agreed writes for
//! every reader: a read that returns one of them, followed by a read of a
//! cell an earlier one wrote, returns that write or a later one
//! ([`RegisterSpace`]'s groups). Shared memory runs a group in slice
//! order, which is program order; the quorum space stamps the writes
//! with one tag, and a reader that writes one of them back writes back
//! all of them (`tfr_net::abd`). Two orders the construction relies on
//! are orders among one process's owned writes, and each now shares one
//! round:
//!
//! * a burst's payloads, *then* its announce counter (combiners read
//!   payloads only below a counter they have read): the payload run, the
//!   counter and the next slot's probe go out as one group, in that
//!   order;
//! * the record and the mark, *then* the slot's announcement (an
//!   adopter proposes the value an announcement names, and whoever
//!   applies the decision reads the record it points to): the record run
//!   and the mark go out in one group with the election's first step,
//!   `announce[pid]`, or the standing read on a recovered session's first
//!   proposal.
//!
//! On shared memory a group runs in slice order, so both groups make the
//! accesses a pair of separate groups would, in the same order; and the
//! announcement fires its injection point only after its write, so the
//! points fire in that order too (the pinned tapes check both).
//!
//! Every other ordering the construction relies on stays *between*
//! groups:
//!
//! * everything a proposal needs — the record, the mark, the slot's
//!   announcement — *before* Algorithm 1's writes of `x` (a decision can
//!   name an offset only once its proposer has proposed it);
//! * Algorithm 1's own Dekker-shaped order, each process writing its `x`
//!   before it reads the other's (below);
//! * a decided record's length, *then* its entries, *then* their payloads
//!   (each run's addresses come from the previous run's values).
//!
//! **Owned writes.** Five groups are written by one process only, through
//! the object's one space handle, which every session of the object
//! shares for its lifetime: a burst's payload run, the announce counter,
//! the `[len, entries]` record run, the arena mark, and
//! `MultiConsensus::announce[pid]`. They go out as owned write runs
//! ([`WriteKind::Owned`]), which a quorum backend serves in one store
//! round with no query phase (the handle's timestamp floor is above every
//! version those cells ever carried, a crashed incarnation's stranded
//! store included).
//!
//! **Agreed writes.** Algorithm 1's `x` and `decide` and the slot's
//! `result` have many writers, but every write to one of them carries
//! one value, and the spec labels them agreed ([`WriteKind::Agreed`]):
//! a quorum backend serves them in one store round too, and the model
//! checker proves the promise. Only `y` keeps a queried write, one
//! conditional write with its read (`consensus.rs`).
//!
//! **The probe.** A session learns whether a slot is decided from one
//! [`MultiConsensus::probe`], read with the announce counter, and an
//! undecided slot's proposal starts from it
//! ([`MultiConsensus::propose_probed`]).
//!
//! **The standing read.** [`MultiConsensus::propose`] reads `pid`'s
//! announcement before announcing, so that a recovered incarnation
//! re-proposes the value its predecessor announced. A [`Session`] pays
//! that read only at its first proposal, and only if it opened with a
//! nonzero arena mark: a predecessor's mark is ordered before its
//! announcement (one ordered group), and it leaves a standing
//! announcement at most at the slot it crashed in, which is the first one
//! a new session can propose at. Every other proposal skips it:
//! [`MultiConsensus::propose_probed`] takes whether to read it. The read
//! rides in the group of the record and the mark, so a recovered
//! session's first proposal costs one round more, not two.
//!
//! **Own-batch apply.** When `propose` returns `pack(pid, offset)` for
//! the record this session has just published at that slot, the session
//! applies the batch from memory: it skips the length, entry and payload
//! read-backs, takes the record it built and the payloads of the ops it
//! announced (kept since `announce_burst`). It reads other processes'
//! payloads, and reads a stretch of consecutive own ops whole when it
//! starts among those a predecessor incarnation announced: that happens
//! once per recovery, so it is not worth splitting the stretch between
//! memory and a read. Equality proves the record is this session's:
//! a predecessor's standing proposal names an offset below the mark this
//! session read when it opened. Every other decision is read back.
//!
//! Algorithm 1's round is **not** grouped past its first read and its
//! last write: Theorems 2.2 and 2.3 rest on each process writing its own
//! `x` before reading the other's, an order across cells that a group
//! does not keep. After the probe a solo instance is four calls in five
//! quorum rounds: the agreed write of `x`, the conditional write of `y`
//! (two), the read of `x[r,¬v]` and the agreed write of `decide` grouped
//! with `result`. The election's scan and the combiner's counter scan
//! stay single reads: they touch one cell or none at the process counts
//! the service runs.

pub use crate::driver::{seen, Between, Group};
use crate::driver::{Ahead, Driver, Hand, Mapped, Serve, Sink, Step};
use crate::election_spec::{ElectionSpec, ElectionState};
use std::sync::Arc;
use std::time::Duration;
use tfr_registers::chaos;
use tfr_registers::native::precise_delay;
use tfr_registers::space::{
    Access, NativeSpace, RegisterSpace, RegisterSpaceExt, SubSpace, WriteKind,
};
use tfr_registers::spec::Obs;
use tfr_registers::{ProcId, Ticks};
use tfr_telemetry::{Span, Trace};

/// Bits needed to name one of `n` processes (at least one): the number of
/// Algorithm 1 instances a [`MultiConsensus`] among `n` runs.
pub(crate) fn pid_bits(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// Wait-free multivalued consensus on values below `2^width`, built from
/// `max(1, ⌈log₂ n⌉)` binary Algorithm 1 instances that decide the
/// winner's pid; `width` bounds the values and does not change the cost.
///
/// The protocol is [`ElectionSpec`], run against the object's space by
/// the crate's native driver, so what runs is what the model checker
/// proves.
///
/// The first announcement stands: a process's value is the one its first
/// [`MultiConsensus::propose`] announced. A later call by the same pid —
/// typically a recovered incarnation re-running a `propose` its
/// predecessor crashed in — proposes that standing value instead of its
/// own, and like every caller returns the common decision.
/// [`MultiConsensus::propose_probed`] can skip the read that finds the
/// standing value, for callers that know there is none to find.
///
/// Every proposal starts from a read of the top pid bit's `decide`, which
/// its Algorithm 1 instance takes as its first loop check. A caller that
/// polls the object before proposing (a [`Session`], the replicated log)
/// reads it together with `result`, as one [`MultiConsensus::probe`], and
/// hands the probe to [`MultiConsensus::propose_probed`]; `propose`
/// reads `decide` alone and goes the same way.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use tfr_core::universal::MultiConsensus;
/// use tfr_registers::ProcId;
///
/// let mc = MultiConsensus::new(3, 8, Duration::from_micros(10));
/// let winner = mc.propose(ProcId(0), 42);
/// assert_eq!(winner, 42, "a solo proposer wins with its own value");
/// assert_eq!(mc.propose(ProcId(1), 7), 42, "later proposers adopt it");
/// ```
pub struct MultiConsensus<S: RegisterSpace = NativeSpace> {
    width: u32,
    /// The election over the shared space, in [`ElectionSpec`]'s layout
    /// from 0: `result` (the decision, +1; 0 = undecided) at 0,
    /// `announce[i]` (process `i`'s proposal, +1) at `1 + i`, and the pid
    /// bits' instances interleaved above.
    driver: Driver<ElectionSpec, Arc<S>>,
}

impl MultiConsensus {
    /// A multivalued consensus object for `n` processes on values
    /// `< 2^width`, with `delay(Δ)` estimate `delta`, over shared memory.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `width` is 0 or greater than 63.
    pub fn new(n: usize, width: u32, delta: Duration) -> MultiConsensus {
        MultiConsensus::on(Arc::new(NativeSpace::with_capacity(256)), n, width, delta)
    }
}

impl<S: RegisterSpace> MultiConsensus<S> {
    /// A multivalued consensus object over an arbitrary (fresh) register
    /// space — e.g. a `tfr-net` quorum space.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `width` is 0 or greater than 63.
    pub fn on(space: Arc<S>, n: usize, width: u32, delta: Duration) -> MultiConsensus<S> {
        assert!(n > 0, "at least one process is required");
        assert!(width > 0 && width <= 63, "width must be in 1..=63");
        // The spec's ticks are the simulator's Δ; natively it is `delta`.
        let spec = ElectionSpec::new(n, 0, Ticks(1));
        MultiConsensus {
            width,
            driver: Driver::new(spec, space, delta),
        }
    }

    /// Reads `result` and the top pid bit's `decide` as one register run:
    /// the one read a caller needs to learn whether the object has
    /// decided and, if not, to start a proposal with
    /// [`MultiConsensus::propose_probed`]. One round trip on a quorum
    /// backend.
    pub fn probe(&self) -> Probe {
        let mut cells = [0; 2];
        self.driver
            .space
            .access_all(&mut [self.probe_access(&mut cells)]);
        Probe::from_cells(cells)
    }

    /// The probe as an access of this object's space, reading into
    /// `cells`, for a caller that sends it in a group ([`Probe::from_cells`]
    /// turns the cells into the probe).
    pub(crate) fn probe_access<'a>(&self, cells: &'a mut [u64; 2]) -> Access<'a> {
        let spec = &self.driver.spec;
        let (result, top) = (spec.result_reg().0, spec.top_decide().0);
        Access::read_run(result, top - result, cells)
    }

    /// A read of `result` as an access of this object's space, into
    /// `cell`: [`MultiConsensus::decision`]'s read, for a caller that
    /// sends it itself.
    pub(crate) fn result_access<'a>(&self, cell: &'a mut [u64; 1]) -> Access<'a> {
        Access::read_run(self.driver.spec.result_reg().0, 1, cell)
    }

    /// Proposes `value` (or, if an earlier call by `pid` already
    /// announced one, that standing value); blocks until the common
    /// decision is known and returns it. Wait-free once timing
    /// constraints hold.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or `value` does not fit in `width`
    /// bits.
    pub fn propose(&self, pid: ProcId, value: u64) -> u64 {
        self.check(pid, value);
        self.run(pid, value, None, true)
    }

    /// The proposal every other one is: `pid` proposes `value` starting
    /// from `probe`, a [`MultiConsensus::probe`] of this object made by
    /// the caller, and returns the common decision. If the probe saw a
    /// decision, that is returned at once; otherwise the top pid bit's
    /// Algorithm 1 instance takes the probed `decide` as its first loop
    /// check, which saves a read. The probe may be as old as the caller
    /// likes: an old read of `decide` is what a slow process makes.
    ///
    /// With `standing`, `pid`'s standing announcement is read first and,
    /// if there is one, proposed instead of `value`
    /// ([`MultiConsensus::propose`]); without it the caller vouches that
    /// there is none, or that it is `value`: no earlier call by `pid`
    /// reached this object, or it announced `value` itself. That saves
    /// one register access; the caller's word is not checked, and an
    /// announcement of another value breaks agreement.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or `value` does not fit in `width`
    /// bits.
    pub fn propose_probed(&self, pid: ProcId, value: u64, probe: Probe, standing: bool) -> u64 {
        self.check(pid, value);
        match probe.decision() {
            Some(decided) => decided,
            None => self.run(pid, value, Some(probe.decide), standing),
        }
    }

    pub(crate) fn check(&self, pid: ProcId, value: u64) {
        assert!(pid.0 < self.driver.spec.n(), "pid out of range");
        assert!(value < 1u64 << self.width, "value exceeds width");
    }

    /// Runs the election for `pid` proposing `value`, started past its
    /// probe of the top pid bit's `decide` if the caller read it
    /// (`top_decide`).
    fn run(&self, pid: ProcId, value: u64, top_decide: Option<u64>, standing: bool) -> u64 {
        let mut state = self.driver.spec.start(pid, value, standing, top_decide);
        self.driver
            .run(&mut state)
            .expect("an election with unbounded rounds ends only in a decision")
    }

    /// The decision, if some proposer has completed.
    pub fn decision(&self) -> Option<u64> {
        match self.driver.space.read(self.driver.spec.result_reg().0) {
            0 => None,
            v => Some(v - 1),
        }
    }

    /// Whether `pid` has announced a proposal, that is, has entered
    /// [`MultiConsensus::propose`]. One register read.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn announced(&self, pid: ProcId) -> bool {
        let spec = &self.driver.spec;
        assert!(pid.0 < spec.n(), "pid out of range");
        self.driver.space.read(spec.announce(pid.0).0) != 0
    }
}

/// What one [`MultiConsensus::probe`] read: `result`, and the top pid
/// bit's `decide`, from which a proposal can start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    result: u64,
    decide: u64,
}

impl Probe {
    /// The probe [`MultiConsensus::probe_access`] read into `cells`.
    pub(crate) fn from_cells(cells: [u64; 2]) -> Probe {
        Probe {
            result: cells[0],
            decide: cells[1],
        }
    }

    /// The decision the probe saw, if the object had one.
    pub fn decision(&self) -> Option<u64> {
        self.result.checked_sub(1)
    }
}

impl<S: RegisterSpace> std::fmt::Debug for MultiConsensus<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiConsensus")
            .field("n", &self.driver.spec.n())
            .field("width", &self.width)
            .field("decision", &self.decision())
            .finish()
    }
}

/// A sequential object specification for [`Universal`].
///
/// Operations and responses are encoded as `u64` (they travel through
/// atomic registers). The `apply` function must be deterministic.
pub trait Sequential: Send + Sync {
    /// The object's sequential state.
    type State: Clone + Send;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Applies `op`, mutating the state and returning the response.
    fn apply(&self, state: &mut Self::State, op: u64) -> u64;
}

/// Offsets into a proposer's batch arena fit in this many bits; together
/// with 8 bits of proposer id they form the 32-bit slot decision.
const ARENA_BITS: u32 = 24;
/// Bound on every slot's [`MultiConsensus`] value. It sets no cost: a
/// slot runs one Algorithm 1 instance per bit of the *pid*, not of this.
const DECIDED_WIDTH: u32 = ARENA_BITS + 8;
/// A batch entry packs `(pid << ENTRY_PID_SHIFT) | seq`.
const ENTRY_PID_SHIFT: u32 = 48;

/// The parent-space regions [`Universal`] tiles via stride-3
/// [`SubSpace`]s.
const REGIONS: u64 = 3;
const REGION_ANNOUNCE: u64 = 0;
const REGION_ARENA: u64 = 1;
const REGION_SLOTS: u64 = 2;

type SlotSpace<S> = SubSpace<SubSpace<Arc<S>>>;

/// One of a [`Universal`]'s register regions, as [`Universal::lift`]
/// names it.
#[derive(Clone, Copy)]
enum Region {
    Announce,
    Arena,
    Slot(usize),
}

/// One committed batch, as observed by a [`Session`] replaying the log —
/// the raw material for `BatchCommit` telemetry and batch-size
/// histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommittedBatch {
    /// The log slot the batch occupies.
    pub slot: usize,
    /// The process whose proposal won the slot.
    pub proposer: ProcId,
    /// The batch record's offset in the proposer's arena.
    pub offset: u64,
    /// Number of operations the batch committed.
    pub size: usize,
}

/// A spec-form audit of the committed log, read straight from the
/// registers (independent of any [`Sequential::apply`]): the *batch spec
/// form* of the universal construction. A correct batcher commits, for
/// every process, exactly the announced prefix — in order, no gaps, no
/// duplicates, nothing invented.
#[derive(Debug, Clone)]
pub struct LogAudit {
    /// Decided slots, from slot 0 up to the first undecided slot.
    pub slots_decided: usize,
    /// Ops committed per process across all decided batches.
    pub committed: Vec<u64>,
    /// Announce counters per process, read after the log.
    pub announced: Vec<u64>,
    /// Every committed entry extended its process's committed prefix by
    /// exactly one (no gap, no duplicate, no out-of-order, no invention),
    /// and every batch record was well-formed.
    pub contiguous: bool,
    /// Sizes of the decided batches, in slot order.
    pub batch_sizes: Vec<usize>,
}

impl LogAudit {
    /// Total ops committed across all processes.
    pub fn total_committed(&self) -> u64 {
        self.committed.iter().sum()
    }

    /// The zero-lost-ops verdict: the log is contiguous and every
    /// announced op of every process has been committed.
    pub fn complete(&self) -> bool {
        self.contiguous && self.committed == self.announced
    }
}

/// Wait-free linearizable implementation of any [`Sequential`] object from
/// atomic registers and Algorithm 1 consensus (Herlihy-style universal
/// construction), with a flat-combining batch path: one consensus decision
/// commits a whole batch of announced operations.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use tfr_core::universal::{Counter, Universal};
/// use tfr_registers::ProcId;
///
/// let obj = Universal::new(Counter, 2, 16, Duration::from_micros(10));
/// assert_eq!(obj.invoke(ProcId(0), 5), 5);  // add 5 → counter = 5
/// assert_eq!(obj.invoke(ProcId(1), 3), 8);  // add 3 → counter = 8
/// ```
///
/// High-throughput callers announce bursts through a [`Session`] instead
/// of one `invoke` per op:
///
/// ```
/// use std::time::Duration;
/// use tfr_core::universal::{Counter, Universal};
/// use tfr_registers::ProcId;
///
/// let obj = Universal::new(Counter, 2, 16, Duration::from_micros(10));
/// let mut session = obj.session(ProcId(0));
/// session.announce_burst(&[2, 3, 4]); // one announce, one proposal…
/// session.drive_pending();
/// let responses: Vec<_> = session.take_responses().collect();
/// assert_eq!(responses.last(), Some(&(2, 9))); // …commits all three
/// ```
pub struct Universal<T: Sequential, S: RegisterSpace = NativeSpace> {
    object: T,
    n: usize,
    capacity: usize,
    max_batch: usize,
    /// Region 0 — announce state. `announced[p]` at `2p`; `arena[p]`
    /// (the published high-water mark of `p`'s batch arena) at `2p + 1`;
    /// `p`'s `seq`-th op payload, +1, at `2n + p + seq·n`.
    announce: SubSpace<Arc<S>>,
    /// Region 1 — batch arenas. Process `p`'s arena cell `i` lives at
    /// `p + i·n`; a batch record at arena offset `o` is `len` at `o`
    /// followed by `len` packed entries, each +1 — one register run of
    /// stride `n`, written before the arena mark and the proposal.
    arena: SubSpace<Arc<S>>,
    /// Region 2 — slot `s` decides which published batch occupies log
    /// position `s`, packed as `proposer · 2^24 + arena offset`.
    slots: Vec<MultiConsensus<SlotSpace<S>>>,
    /// Causal-span sink: every combining proposal a [`Session`] makes is
    /// wrapped in a `"consensus"` span on this trace (disabled by default).
    trace: Trace,
}

impl<T: Sequential> Universal<T> {
    /// A universal object for `n` processes over shared memory, accepting
    /// at most `capacity` batches in total; `delta` is the consensus
    /// `delay(Δ)` estimate.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or above 255, or `capacity` is 0.
    pub fn new(object: T, n: usize, capacity: usize, delta: Duration) -> Universal<T> {
        Universal::on(
            Arc::new(NativeSpace::with_capacity(256)),
            object,
            n,
            capacity,
            delta,
        )
    }
}

impl<T: Sequential, S: RegisterSpace> Universal<T, S> {
    /// A universal object over an arbitrary **fresh** register space (the
    /// construction owns all of it; use [`SubSpace`] tiling to share one
    /// backend among several objects — that is exactly what the sharded
    /// service does).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or above 255, or `capacity` is 0.
    pub fn on(
        space: Arc<S>,
        object: T,
        n: usize,
        capacity: usize,
        delta: Duration,
    ) -> Universal<T, S> {
        assert!(n > 0 && n <= 255, "n must be in 1..=255");
        assert!(capacity > 0, "capacity must be positive");
        let announce = SubSpace::new(Arc::clone(&space), REGION_ANNOUNCE, REGIONS);
        let arena = SubSpace::new(Arc::clone(&space), REGION_ARENA, REGIONS);
        let slot_region = SubSpace::new(Arc::clone(&space), REGION_SLOTS, REGIONS);
        let slots = (0..capacity)
            .map(|s| {
                let region = SubSpace::new(slot_region.clone(), s as u64, capacity as u64);
                MultiConsensus::on(Arc::new(region), n, DECIDED_WIDTH, delta)
            })
            .collect();
        Universal {
            object,
            n,
            capacity,
            max_batch: 64,
            announce,
            arena,
            slots,
            trace: Trace::disabled(),
        }
    }

    /// Caps how many operations one batch may commit (default 64). Must
    /// be set before any operation is announced.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is 0.
    pub fn with_max_batch(mut self, max_batch: usize) -> Universal<T, S> {
        assert!(max_batch > 0, "a batch must hold at least one op");
        self.max_batch = max_batch;
        self
    }

    /// Attaches a causal trace: every combining proposal (the consensus
    /// act that commits a batch) is wrapped in a `"consensus"` span, so
    /// an exported span tree connects a client's batch to the quorum
    /// phases its decision cost.
    pub fn with_trace(mut self, trace: Trace) -> Universal<T, S> {
        self.trace = trace;
        self
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of log slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The per-batch operation cap.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    #[inline]
    fn idx_announced(p: usize) -> u64 {
        2 * p as u64
    }

    #[inline]
    fn idx_arena_mark(p: usize) -> u64 {
        2 * p as u64 + 1
    }

    #[inline]
    fn idx_op(&self, p: usize, seq: u64) -> u64 {
        2 * self.n as u64 + p as u64 + seq * self.n as u64
    }

    #[inline]
    fn idx_arena(&self, p: usize, cell: u64) -> u64 {
        p as u64 + cell * self.n as u64
    }

    /// `access`, made in `region`'s coordinates, lifted into those of the
    /// space the regions tile ([`Universal::space`]): how a [`Session`]
    /// sends accesses to several regions as one group.
    #[inline(always)]
    fn lift<'a>(&self, region: Region, mut access: Access<'a>) -> Access<'a> {
        match region {
            Region::Announce => self.announce.lift(&mut access),
            Region::Arena => self.arena.lift(&mut access),
            Region::Slot(s) => self.lift_slot(s, &mut access),
        }
        access
    }

    /// Lifts `access`, made in slot `s`'s coordinates, in place.
    #[inline(always)]
    fn lift_slot(&self, s: usize, access: &mut Access<'_>) {
        // Slot `s`'s space is a tile of region 2.
        let view = &*self.slots[s].driver.space;
        view.lift(access);
        view.inner().lift(access);
    }

    /// The register space the object was built on: the coordinates of a
    /// [`Session::group`].
    pub fn space(&self) -> &S {
        self.announce.inner()
    }

    #[inline]
    fn pack(pid: usize, offset: u64) -> u64 {
        ((pid as u64) << ARENA_BITS) | offset
    }

    #[inline]
    fn unpack(v: u64) -> (usize, u64) {
        ((v >> ARENA_BITS) as usize, v & ((1 << ARENA_BITS) - 1))
    }

    /// Opens a driving session for process `pid`: the handle through
    /// which operations are announced (singly or in bursts) and the
    /// committed log is replayed. Sessions of one process are sequential
    /// — open at most one at a time per `pid`; a fresh session (e.g. a
    /// recovered incarnation) picks up the process's announce counter and
    /// arena mark from the registers.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn session(&self, pid: ProcId) -> Session<'_, T, S> {
        assert!(pid.0 < self.n, "pid out of range");
        // The counter and the mark are adjacent: one run of two.
        let mut own = [0; 2];
        debug_assert_eq!(Self::idx_arena_mark(pid.0), Self::idx_announced(pid.0) + 1);
        self.announce
            .read_run(Self::idx_announced(pid.0), 1, &mut own);
        Session {
            uni: self,
            pid,
            state: self.object.initial(),
            next_slot: 0,
            done: vec![0; self.n],
            announced: own[0],
            arena_mark: own[1],
            standing: own[1] != 0,
            probe: None,
            own_payloads: Vec::new(),
            responses: Vec::new(),
            commits: Vec::new(),
            scratch: Vec::new(),
            phase: Phase::Idle,
            proposing: false,
            obs: Vec::new(),
            spare: None,
            consensus: None,
        }
    }

    /// Invokes `op` (at most 2^64−2) as process `pid`; blocks until the
    /// operation is linearized and returns its response.
    ///
    /// Wait-free once timing constraints hold: the combining rule gives
    /// every announced operation batch priority at one slot in every `n`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or the object's slot capacity is
    /// exhausted.
    pub fn invoke(&self, pid: ProcId, op: u64) -> u64 {
        assert!(pid.0 < self.n, "pid out of range");
        let mut session = self.session(pid);
        let seq = session.announce(op);
        session.drive_pending();
        session
            .responses
            .iter()
            .rev()
            .find(|&&(s, _)| s == seq)
            .map(|&(_, r)| r)
            .expect("a driven session has applied its own announced op")
    }

    /// Replays the committed prefix of the log and returns the current
    /// state (a read-only snapshot; not linearized against in-flight
    /// operations).
    pub fn snapshot(&self) -> T::State {
        let mut session = self.session(ProcId(0));
        session.catch_up();
        session.state
    }

    /// Process `p`'s `seq`-th announced op payload, if it has been
    /// announced.
    pub fn announced_op(&self, p: usize, seq: u64) -> Option<u64> {
        assert!(p < self.n, "pid out of range");
        match self.announce.read(self.idx_op(p, seq)) {
            0 => None,
            raw => Some(raw - 1),
        }
    }

    /// Audits the committed log against the announce counters — the batch
    /// spec form (see [`LogAudit`]). Sound at quiescence; mid-run it may
    /// report announced-but-not-yet-committed ops.
    pub fn audit(&self) -> LogAudit {
        let mut committed = vec![0u64; self.n];
        let mut contiguous = true;
        let mut batch_sizes = Vec::new();
        let mut slots_decided = 0;
        'log: for slot in &self.slots {
            let Some(d) = slot.decision() else { break };
            slots_decided += 1;
            let (q, offset) = Self::unpack(d);
            let len = self.arena.read(self.idx_arena(q, offset)) as usize;
            if q >= self.n || len == 0 || len > self.max_batch {
                contiguous = false;
                break;
            }
            batch_sizes.push(len);
            for r in 1..=len {
                let raw = self.arena.read(self.idx_arena(q, offset + r as u64));
                if raw == 0 {
                    contiguous = false;
                    break 'log;
                }
                let entry = raw - 1;
                let p = (entry >> ENTRY_PID_SHIFT) as usize;
                let seq = entry & ((1 << ENTRY_PID_SHIFT) - 1);
                if p >= self.n || seq != committed[p] {
                    contiguous = false;
                    break 'log;
                }
                committed[p] += 1;
            }
        }
        let announced = (0..self.n)
            .map(|p| self.announce.read(Self::idx_announced(p)))
            .collect();
        LogAudit {
            slots_decided,
            committed,
            announced,
            contiguous,
            batch_sizes,
        }
    }
}

/// A per-process driving handle for a [`Universal`] object: announce
/// operations (singly or in bursts), replay the committed log, and
/// collect responses and batch-commit observations.
///
/// The session replays incrementally — it remembers the last slot it
/// applied, so polling a quiet object costs one register read. Created
/// by [`Universal::session`].
///
/// # A machine of groups
///
/// Announcing, probing, publishing, the election and applying are the
/// states of one machine, which waits on one group of register accesses
/// at a time. [`Session::announce_burst`], [`Session::drive_pending`] and
/// [`Session::catch_up`] are thin loops over it, on the object's own
/// space. A caller that drives several objects over one space (a service
/// worker with several busy shards) runs the machine itself:
///
/// 1. [`Session::start_announce`] or [`Session::start_drive`] sets it
///    going;
/// 2. [`Session::wait`] says what it waits on: a group, `delay(Δ)`, or
///    nothing, once it is done;
/// 3. [`Session::group`] hands out the group's accesses, in the
///    coordinates of the object's space ([`Universal::space`]); the
///    caller may send them with other sessions' groups in one
///    [`RegisterSpace::access_all`] call, or wait out a delay while
///    serving others;
/// 4. [`Session::resume`] takes the results back and runs the machine to
///    what it waits on next.
///
/// Every group is what the thin loops send, in the same order, so a
/// session's accesses do not depend on who serves them.
pub struct Session<'u, T: Sequential, S: RegisterSpace> {
    uni: &'u Universal<T, S>,
    pid: ProcId,
    state: T::State,
    next_slot: usize,
    /// Ops applied per process, i.e. the committed prefix lengths after
    /// `next_slot` slots — identical across all sessions at the same
    /// slot, because the log is agreed.
    done: Vec<u64>,
    /// Own announce counter (mirrors the register).
    announced: u64,
    /// Own arena high-water mark (mirrors the register).
    arena_mark: u64,
    /// Whether the next proposal may find a standing announcement of a
    /// predecessor incarnation, and so must read it: until this session's
    /// first proposal, if it opened with a nonzero arena mark.
    standing: bool,
    /// The probe `announce_burst` read of the slot named, for the next
    /// `drive_pending` to start from if that slot is still its next.
    probe: Option<(usize, Probe)>,
    /// The payload registers' values (+1) of the own ops this session
    /// announced and has not yet applied: sequence numbers
    /// `announced − len .. announced`. Own ops below that range were
    /// announced by a predecessor incarnation and are read.
    own_payloads: Vec<u64>,
    /// `(seq, response)` for own ops applied during this session's
    /// replay.
    responses: Vec<(u64, u64)>,
    /// Batches observed committed during this session's replay.
    commits: Vec<CommittedBatch>,
    /// Reused buffer for the register runs of publishing and applying, so
    /// that a decision allocates nothing once it has grown. From
    /// `publish_batch` to the apply of its slot it holds the published
    /// record, `[len, entries…]`; while a slot is applied, the record and
    /// then the payloads of its entries.
    scratch: Vec<u64>,
    /// Where the machine is, and the buffers of the group it waits on.
    phase: Phase,
    /// Whether the slot loop proposes at an undecided slot
    /// (`drive_pending`) or stops there (`catch_up`).
    proposing: bool,
    /// The election's events, reused across steps.
    obs: Vec<Obs>,
    /// The last election's box, reused by the next: a decision allocates
    /// nothing once the session has made one.
    spare: Option<Box<Election>>,
    /// The `"consensus"` span around the proposal in progress.
    consensus: Option<Span<'u>>,
}

/// What a [`Session`] waits on ([`Session::wait`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// The group [`Session::group`] hands out; a conditional write in it
    /// fires this point between its read and its write.
    Group(Between),
    /// `delay(Δ)`: call [`Session::resume`] once at least this long has
    /// passed.
    Delay(Duration),
    /// Nothing: the last call is done.
    Done,
}

/// Slot `s`'s election, proposing `proposal`, stepped by a [`Session`]'s
/// machine when its caller multiplexes sessions: its state, the step it
/// waits on, and its decision once a step has made it.
struct Election {
    s: usize,
    proposal: u64,
    state: ElectionState,
    step: Step,
    decided: Option<u64>,
}

/// The states of a [`Session`]'s machine that wait on a group (or a
/// delay), with the buffers the group reads into or writes from.
enum Phase {
    Idle,
    /// The payload run of `own_payloads[from..]`, from sequence number
    /// `first`, then the announce counter, with the probe of slot `s` if
    /// there is one.
    Counter {
        from: usize,
        first: u64,
        count: [u64; 1],
        probe: Option<(usize, [u64; 2])>,
    },
    /// Slot `s`'s probe, read before proposing.
    Probe {
        s: usize,
        cells: [u64; 2],
    },
    /// Slot `s`'s `result`, read by a catch-up.
    Result {
        s: usize,
        cell: [u64; 1],
    },
    /// The combiner's read of the announce counter of process
    /// `(s + off) mod n`.
    Scan {
        s: usize,
        probe: Probe,
        off: usize,
        cell: [u64; 1],
    },
    /// The record in `scratch` and the arena mark, published at `offset`,
    /// then the first step of `election`, which proposes the record.
    Publish {
        election: Box<Election>,
        offset: u64,
        mark: [u64; 1],
    },
    /// A step of an election.
    Elect(Box<Election>),
    /// The length of the record slot `s` decided.
    Length {
        s: usize,
        decided: u64,
        cell: [u64; 1],
    },
    /// The entries of the record slot `s` decided.
    Entries {
        s: usize,
        decided: u64,
    },
    /// The payloads of the decided record's entries `start..end`.
    Stretch {
        s: usize,
        decided: u64,
        own: bool,
        start: usize,
        end: usize,
    },
}

impl<'u, T: Sequential, S: RegisterSpace> Session<'u, T, S> {
    /// This session's process id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// The object state after every slot this session has replayed.
    pub fn state(&self) -> &T::State {
        &self.state
    }

    /// Own ops announced but not yet observed committed.
    pub fn pending(&self) -> u64 {
        self.announced - self.done[self.pid.0]
    }

    /// Announces one operation; returns its sequence number. The op is
    /// *not* yet linearized — call [`Session::drive_pending`].
    pub fn announce(&mut self, op: u64) -> u64 {
        self.announce_burst(&[op])
    }

    /// Announces a burst of operations with a single counter publication
    /// — the client half of flat combining — and returns the sequence
    /// number of the first. Sequence numbers are consecutive.
    ///
    /// The payloads go out as one register run, *then* the counter, in
    /// one ordered group: a combiner reads payloads only below a counter
    /// value it has read, so the payloads need no order among themselves,
    /// and the group orders them before the counter for every reader
    /// (see [Ordered groups](self#ordered-groups)). Both are owned writes
    /// (only this process writes them), and the session keeps the
    /// payloads until the ops are applied. The group ends with the
    /// [`MultiConsensus::probe`] of the next slot, which
    /// [`Session::drive_pending`] starts from: a read may come as early as
    /// the caller likes.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or an op is `u64::MAX`.
    pub fn announce_burst(&mut self, ops: &[u64]) -> u64 {
        let first = self.start_announce(ops);
        self.finish();
        first
    }

    /// Drives the log until every own announced op has been committed and
    /// applied: replay decided slots; at the first undecided slot, act as
    /// the combiner — publish a batch of every pending announced op
    /// (scan order rotates with the slot, preserving helping) and propose
    /// it. Wait-free once timing constraints hold.
    ///
    /// # Panics
    ///
    /// Panics if the slot capacity is exhausted first.
    pub fn drive_pending(&mut self) {
        self.start_drive();
        self.finish();
    }

    /// Replays every already-decided slot without proposing anything —
    /// a pure reader's catch-up.
    pub fn catch_up(&mut self) {
        self.start(false);
        self.finish();
    }

    /// Sets [`Session::announce_burst`] going on the machine and returns
    /// the burst's first sequence number; nothing is sent until the
    /// caller serves the groups (see [`Session`]).
    ///
    /// # Panics
    ///
    /// Panics if the session is not done with its last call, `ops` is
    /// empty, or an op is `u64::MAX`.
    pub fn start_announce(&mut self, ops: &[u64]) -> u64 {
        assert!(matches!(self.phase, Phase::Idle), "one call at a time");
        assert!(!ops.is_empty(), "announce at least one op");
        chaos::point(chaos::points::UNIVERSAL_ANNOUNCE);
        let first = self.announced;
        let from = self.own_payloads.len();
        self.own_payloads.extend(ops.iter().map(|&op| {
            assert!(op < u64::MAX, "op encoding must leave room for +1");
            op + 1
        }));
        self.announced = first + ops.len() as u64;
        self.phase = Phase::Counter {
            from,
            first,
            count: [self.announced],
            probe: (self.next_slot < self.uni.capacity).then_some((self.next_slot, [0; 2])),
        };
        first
    }

    /// Sets [`Session::drive_pending`] going on the machine (see
    /// [`Session`]).
    ///
    /// # Panics
    ///
    /// Panics if the session is not done with its last call, or if the
    /// slot capacity is exhausted before every own op is applied (when
    /// the machine reaches that slot).
    pub fn start_drive(&mut self) {
        self.start(true);
    }

    fn start(&mut self, proposing: bool) {
        assert!(matches!(self.phase, Phase::Idle), "one call at a time");
        self.proposing = proposing;
        self.advance();
    }

    /// What the machine waits on.
    pub fn wait(&self) -> Wait {
        match &self.phase {
            Phase::Idle => Wait::Done,
            Phase::Elect(election) if election.step.is_delay() => {
                Wait::Delay(self.uni.slots[election.s].driver.delta)
            }
            Phase::Elect(election) | Phase::Publish { election, .. } => {
                Wait::Group(election.step.between())
            }
            _ => Wait::Group(Between::NONE),
        }
    }

    /// The group the machine waits on, in the coordinates of the object's
    /// space ([`Universal::space`]), with `between` as its conditional
    /// write's (see [`Wait::Group`]); empty unless it waits on a group.
    pub fn group<'a>(&'a mut self, between: &'a mut dyn FnMut()) -> Group<'a> {
        self.accesses(between, Hand)
    }

    /// Hands the group the machine waits on to `sink` ([`Session::group`]).
    #[inline(always)]
    fn accesses<'a, K: Sink<'a>>(&'a mut self, between: &'a mut dyn FnMut(), sink: K) -> K::Out {
        let uni = self.uni;
        let (pid, n) = (self.pid.0, uni.n as u64);
        match &mut self.phase {
            Phase::Idle => sink.none(),
            Phase::Counter {
                from,
                first,
                count,
                probe,
            } => {
                let payloads = uni.lift(
                    Region::Announce,
                    Access::write_run(
                        uni.idx_op(pid, *first),
                        n,
                        &self.own_payloads[*from..],
                        WriteKind::Owned,
                    ),
                );
                let counter = uni.lift(
                    Region::Announce,
                    Access::write_run(
                        Universal::<T, S>::idx_announced(pid),
                        1,
                        count,
                        WriteKind::Owned,
                    ),
                );
                match probe {
                    // Past the last slot there is nothing to probe.
                    None => sink.two(payloads, counter),
                    Some((s, cells)) => sink.three(
                        payloads,
                        counter,
                        uni.lift(Region::Slot(*s), uni.slots[*s].probe_access(cells)),
                    ),
                }
            }
            Phase::Probe { s, cells } => {
                sink.one(uni.lift(Region::Slot(*s), uni.slots[*s].probe_access(cells)))
            }
            Phase::Result { s, cell } => {
                sink.one(uni.lift(Region::Slot(*s), uni.slots[*s].result_access(cell)))
            }
            Phase::Scan { s, off, cell, .. } => {
                let p = (*s + *off) % uni.n;
                sink.one(uni.lift(
                    Region::Announce,
                    Access::read_run(Universal::<T, S>::idx_announced(p), 1, cell),
                ))
            }
            Phase::Publish {
                election,
                offset,
                mark,
            } => {
                let record = uni.lift(
                    Region::Arena,
                    Access::write_run(
                        uni.idx_arena(pid, *offset),
                        n,
                        &self.scratch,
                        WriteKind::Owned,
                    ),
                );
                let mark = uni.lift(
                    Region::Announce,
                    Access::write_run(
                        Universal::<T, S>::idx_arena_mark(pid),
                        1,
                        mark,
                        WriteKind::Owned,
                    ),
                );
                let s = election.s;
                let map = move |access: &mut Access<'a>| uni.lift_slot(s, access);
                let to = Ahead {
                    first: [record, mark],
                    to: sink,
                };
                election.step.accesses(between, Mapped { map, to })
            }
            Phase::Elect(election) => {
                let s = election.s;
                let map = move |access: &mut Access<'a>| uni.lift_slot(s, access);
                election.step.accesses(between, Mapped { map, to: sink })
            }
            Phase::Length { decided, cell, .. } => {
                let (q, offset) = Universal::<T, S>::unpack(*decided);
                sink.one(uni.lift(
                    Region::Arena,
                    Access::read_run(uni.idx_arena(q, offset), 1, cell),
                ))
            }
            Phase::Entries { decided, .. } => {
                let (q, offset) = Universal::<T, S>::unpack(*decided);
                sink.one(uni.lift(
                    Region::Arena,
                    Access::read_run(uni.idx_arena(q, offset + 1), n, &mut self.scratch[1..]),
                ))
            }
            Phase::Stretch { start, end, .. } => {
                let len = self.scratch[0] as usize;
                let (entries, payloads) = self.scratch[1..].split_at_mut(len);
                let (p, seq) = split_entry(entries[*start]);
                sink.one(uni.lift(
                    Region::Announce,
                    Access::read_run(uni.idx_op(p, seq), n, &mut payloads[*start..*end]),
                ))
            }
        }
    }

    /// Takes back the group the machine waited on, served — `seen` being
    /// what its conditional write read ([`seen`]) — or the delay,
    /// waited out, and runs the machine to what it waits on next.
    pub fn resume(&mut self, seen: u64) {
        self.resume_with(seen, false)
    }

    /// [`Session::resume`]; `alone` when the caller serves this session
    /// alone, on the object's own space ([`Session::finish`]). Then an
    /// election runs whole, as [`MultiConsensus::propose_probed`] on the
    /// slot's space: the same groups, sent by the driver's own loop,
    /// whose steps fold into the plain accesses they stand for.
    #[inline(always)]
    fn resume_with(&mut self, seen: u64, alone: bool) {
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => {}
            Phase::Counter { probe, .. } => {
                if let Some((s, cells)) = probe {
                    self.probe = Some((s, Probe::from_cells(cells)));
                }
            }
            Phase::Probe { s, cells } => self.decide(s, Probe::from_cells(cells)),
            Phase::Result { s, cell: [result] } => {
                if let Some(decided) = result.checked_sub(1) {
                    self.apply(s, decided, false)
                }
            }
            Phase::Scan {
                s,
                probe,
                off,
                cell: [high],
            } => {
                let p = (s + off) % self.uni.n;
                if self.combine(p, high) {
                    self.scan(s, probe, off + 1)
                } else {
                    self.publish(s, probe)
                }
            }
            Phase::Publish { election, .. } | Phase::Elect(election) => {
                self.step_election(election, seen, alone)
            }
            Phase::Length {
                s,
                decided,
                cell: [len],
            } => {
                self.scratch.clear();
                self.scratch.push(len);
                self.scratch.resize(1 + len as usize, 0);
                self.phase = Phase::Entries { s, decided };
            }
            Phase::Entries { s, decided } => self.stretches(s, decided, false, 0),
            Phase::Stretch {
                s,
                decided,
                own,
                end,
                ..
            } => self.stretches(s, decided, own, end),
        }
    }

    /// Takes back the step `election` waited on, `seen` what its
    /// conditional write read, and moves the election on: to its next
    /// step or, served `alone`, through the rest of the election, run
    /// whole in the driver's own loop. Out of line: inlined into the
    /// thin loops, it made a native 16-op burst ~10 % slower (2-vCPU
    /// host, minimum of 41 repetitions).
    #[inline(never)]
    fn step_election(&mut self, mut election: Box<Election>, seen: u64, alone: bool) {
        let driver = &self.uni.slots[election.s].driver;
        let Election {
            state,
            step,
            decided,
            ..
        } = &mut *election;
        step.served(seen);
        driver.resume(state, step, &mut self.obs);
        *decided = driver.events(&mut self.obs).or(*decided);
        if alone {
            *decided = driver.run(state).or(*decided);
        }
        *step = driver.next(state, &mut self.obs);
        self.elect(election);
    }

    /// Serves every group the machine waits on, on the object's own
    /// space, and waits out its delays, until it is done.
    pub fn finish(&mut self) {
        let uni = self.uni;
        loop {
            match self.wait() {
                Wait::Group(between) => {
                    let seen = self.accesses(&mut || between.fire(), Serve(uni.space()));
                    self.resume_with(seen, true);
                }
                Wait::Delay(delta) => {
                    precise_delay(delta);
                    self.resume_with(0, true);
                }
                Wait::Done => return,
            }
        }
    }

    /// Takes the `(seq, response)` pairs for own ops applied since the
    /// last take. The buffer keeps its capacity, so a session driven over
    /// and over stops allocating for its responses once it has grown.
    pub fn take_responses(&mut self) -> std::vec::Drain<'_, (u64, u64)> {
        self.responses.drain(..)
    }

    /// Takes the batches observed committed since the last take; the
    /// buffer keeps its capacity.
    pub fn take_commits(&mut self) -> std::vec::Drain<'_, CommittedBatch> {
        self.commits.drain(..)
    }

    /// The slot loop: the next slot's probe (or, for a catch-up, its
    /// `result`), unless the loop is done.
    fn advance(&mut self) {
        let s = self.next_slot;
        if !self.proposing {
            if s < self.uni.capacity {
                self.phase = Phase::Result { s, cell: [0] };
            }
            return;
        }
        if self.done[self.pid.0] >= self.announced {
            return;
        }
        assert!(
            s < self.uni.capacity,
            "universal object capacity exhausted before the operation was linearized"
        );
        match self.probe.take() {
            Some((slot, probe)) if slot == s => self.decide(s, probe),
            _ => self.phase = Phase::Probe { s, cells: [0; 2] },
        }
    }

    /// Applies slot `s` if `probe` saw it decided, and otherwise starts
    /// the combiner: builds a batch of pending announced ops for it, from
    /// a scan of the announce counters, publishes its record in the own
    /// arena (see `publish`) and proposes it.
    fn decide(&mut self, s: usize, probe: Probe) {
        if let Some(decided) = probe.decision() {
            return self.apply(s, decided, false);
        }
        chaos::point(chaos::points::UNIVERSAL_COMBINE);
        self.consensus = Some(Span::enter(&self.uni.trace, "consensus"));
        // The record being built: `len` (patched by `publish`), then the
        // entries.
        self.scratch.clear();
        self.scratch.push(0);
        self.scan(s, probe, 0);
    }

    /// Combines with rotating priority: scans announce counters starting
    /// at process s mod n, so every process's oldest pending op leads the
    /// batch at one slot in every n — the helping rule that makes the
    /// construction wait-free, now at batch granularity. Its own counter
    /// the session knows; every other one it reads (`Phase::Scan`).
    fn scan(&mut self, s: usize, probe: Probe, mut off: usize) {
        let n = self.uni.n;
        while off < n {
            let p = (s + off) % n;
            if p != self.pid.0 {
                self.phase = Phase::Scan {
                    s,
                    probe,
                    off,
                    cell: [0],
                };
                return;
            }
            if !self.combine(p, self.announced) {
                break;
            }
            off += 1;
        }
        self.publish(s, probe)
    }

    /// Appends process `p`'s pending ops below `high` to the record;
    /// false once the record is full and the scan ends.
    fn combine(&mut self, p: usize, high: u64) -> bool {
        let record = &mut self.scratch;
        let mut seq = self.done[p];
        while seq < high {
            if record.len() > self.uni.max_batch {
                return false;
            }
            record.push((((p as u64) << ENTRY_PID_SHIFT) | seq) + 1);
            seq += 1;
        }
        true
    }

    /// Publishes the record built in `scratch` for slot `s` in the own
    /// arena, at the arena mark.
    ///
    /// The record — the length cell and the entries — goes out as one
    /// register run, in one ordered group with the arena mark and the
    /// first step of the slot's election, which proposes the record:
    /// `announce[pid]`, or the standing read. What matters is that
    /// **everything is written before the proposal is seen**: no reader
    /// dereferences an arena offset until a slot's decision names it, a
    /// decision can name this offset only once some process has read
    /// this session's announcement, and the group orders the record and
    /// the mark before the announcement for every reader (see
    /// [Ordered groups](self#ordered-groups)). A session that crashes
    /// before its group is seen leaves an unreferenced record that its
    /// next incarnation, reading the old mark, overwrites. The record
    /// stays in `scratch` for the own-batch apply. The election starts
    /// here, its first step waiting in the group; served alone
    /// ([`Session::finish`]), the rest of it runs whole in the driver's
    /// own loop.
    fn publish(&mut self, s: usize, probe: Probe) {
        let offset = self.arena_mark;
        let len = self.scratch.len() as u64 - 1;
        debug_assert!(len > 0, "the combiner only runs with own ops pending");
        assert!(
            offset + len + 1 < 1 << ARENA_BITS,
            "per-process batch arena exhausted"
        );
        self.scratch[0] = len;
        self.arena_mark = offset + 1 + len;
        let proposal = Universal::<T, S>::pack(self.pid.0, offset);
        let slot = &self.uni.slots[s];
        slot.check(self.pid, proposal);
        let standing = std::mem::take(&mut self.standing);
        let mut state = (slot.driver.spec).start(self.pid, proposal, standing, Some(probe.decide));
        let step = slot.driver.next(&mut state, &mut self.obs);
        let election = Election {
            s,
            proposal,
            state,
            step,
            decided: None,
        };
        let election = match self.spare.take() {
            Some(mut spare) => {
                *spare = election;
                spare
            }
            None => Box::new(election),
        };
        self.phase = Phase::Publish {
            election,
            offset,
            mark: [self.arena_mark],
        };
    }

    /// Waits on `election`'s next step or, once it has halted, applies its
    /// decision.
    fn elect(&mut self, election: Box<Election>) {
        if !election.step.halted() {
            self.phase = Phase::Elect(election);
            return;
        }
        let decided =
            (election.decided).expect("an election with unbounded rounds ends only in a decision");
        let (s, proposal) = (election.s, election.proposal);
        self.spare = Some(election);
        self.elected(s, proposal, decided)
    }

    /// Closes the proposal of `proposal` at slot `s`, which decided
    /// `decided`, and applies the decision.
    fn elected(&mut self, s: usize, proposal: u64, decided: u64) {
        self.consensus = None;
        // Equal only if this very record won: a predecessor
        // incarnation's standing proposal names an offset below the mark
        // this session started from.
        self.apply(s, decided, decided == proposal)
    }

    /// Applies the batch decided at slot `s` to the replayed state.
    ///
    /// The record is read back — the length, then the entries as one
    /// register run — unless `own` says this session's own proposal won
    /// the slot: then `scratch` still holds the very record it published
    /// (see `publish`). The payloads follow as one run per stretch
    /// of consecutive entries of one process (a stretch is consecutive
    /// sequence numbers, hence a strided run of that process's payload
    /// cells). For an own batch, a stretch of ops this session announced
    /// comes from memory instead; a stretch of another process's ops, or
    /// one that starts among a predecessor incarnation's, is read whole.
    fn apply(&mut self, s: usize, decided: u64, own: bool) {
        if own {
            self.stretches(s, decided, true, 0)
        } else {
            self.phase = Phase::Length {
                s,
                decided,
                cell: [0],
            }
        }
    }

    /// Fills in the payloads of the decided record's entries from
    /// `start` on: from memory where it can, and otherwise by reading the
    /// next stretch (`Phase::Stretch`). Once every payload is in, applies
    /// the batch and moves to the next slot.
    fn stretches(&mut self, s: usize, decided: u64, own: bool, mut start: usize) {
        let len = self.scratch[0] as usize;
        debug_assert!(
            len >= 1 && len <= self.uni.max_batch,
            "a decided batch record is published before its proposal"
        );
        self.scratch.resize(1 + 2 * len, 0);
        let (entries, payloads) = self.scratch[1..].split_at_mut(len);
        // Own ops from this sequence number on are in `own_payloads`.
        let remembered = self.announced - self.own_payloads.len() as u64;
        while start < len {
            let mut end = start + 1;
            while end < len && entries[end] == entries[end - 1] + 1 {
                end += 1;
            }
            let (p, seq) = split_entry(entries[start]);
            if !(own && p == self.pid.0 && seq >= remembered) {
                self.phase = Phase::Stretch {
                    s,
                    decided,
                    own,
                    start,
                    end,
                };
                return;
            }
            let from = (seq - remembered) as usize;
            payloads[start..end].copy_from_slice(&self.own_payloads[from..from + end - start]);
            start = end;
        }
        self.commit(s, decided);
    }

    /// Applies the batch slot `s` decided, whose record and payloads are
    /// in `scratch`, and moves the slot loop on.
    fn commit(&mut self, s: usize, decided: u64) {
        let uni = self.uni;
        let (q, offset) = Universal::<T, S>::unpack(decided);
        let len = self.scratch[0] as usize;
        let (entries, payloads) = self.scratch[1..].split_at(len);
        for (&raw, &payload) in entries.iter().zip(payloads.iter()) {
            let (p, seq) = split_entry(raw);
            debug_assert_eq!(
                seq, self.done[p],
                "batch entries extend each process's committed prefix"
            );
            debug_assert!(payload != 0, "committed ops were announced");
            let response = uni.object.apply(&mut self.state, payload - 1);
            if p == self.pid.0 {
                self.responses.push((seq, response));
            }
            self.done[p] += 1;
        }
        // Applied own ops — from this batch or anyone's — leave memory.
        let applied = self
            .own_payloads
            .len()
            .saturating_sub(self.pending() as usize);
        self.own_payloads.drain(..applied);
        self.commits.push(CommittedBatch {
            slot: s,
            proposer: ProcId(q),
            offset,
            size: len,
        });
        self.next_slot = s + 1;
        self.advance();
    }
}

/// A committed batch entry's `(pid, seq)`.
#[inline]
fn split_entry(raw: u64) -> (usize, u64) {
    debug_assert!(raw != 0, "committed batch entries are published");
    let entry = raw - 1;
    let p = (entry >> ENTRY_PID_SHIFT) as usize;
    (p, entry & ((1 << ENTRY_PID_SHIFT) - 1))
}

// ---------------------------------------------------------------------
// Example sequential objects
// ---------------------------------------------------------------------

/// A counter: `op` is the amount to add; the response is the new total.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter;

impl Sequential for Counter {
    type State = u64;
    fn initial(&self) -> u64 {
        0
    }
    fn apply(&self, state: &mut u64, op: u64) -> u64 {
        *state += op;
        *state
    }
}

/// A FIFO queue of `u32`s. Encode `enqueue(v)` as `(v << 1) | 1` and
/// `dequeue` as `0`; `dequeue` responds with `value + 1`, or 0 when empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoQueue;

impl FifoQueue {
    /// Encodes an enqueue operation.
    pub fn enqueue_op(v: u32) -> u64 {
        ((v as u64) << 1) | 1
    }
    /// The dequeue operation.
    pub const DEQUEUE: u64 = 0;
    /// Decodes a dequeue response.
    pub fn decode_dequeue(resp: u64) -> Option<u32> {
        resp.checked_sub(1).map(|v| v as u32)
    }
}

impl Sequential for FifoQueue {
    type State = std::collections::VecDeque<u32>;
    fn initial(&self) -> Self::State {
        std::collections::VecDeque::new()
    }
    fn apply(&self, state: &mut Self::State, op: u64) -> u64 {
        if op & 1 == 1 {
            state.push_back((op >> 1) as u32);
            0
        } else {
            match state.pop_front() {
                Some(v) => v as u64 + 1,
                None => 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{ConsensusSpec, NativeConsensus};
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};
    use std::time::Instant;
    use tfr_registers::bank::RegisterBank;
    use tfr_registers::chaos::{self, points, ChaosSession, Fault, FaultAction, PointObserver};
    use tfr_registers::spec::run_solo;
    use tfr_registers::RegId;

    const D: Duration = Duration::from_micros(5);

    #[test]
    fn multi_solo_wins() {
        let mc = MultiConsensus::new(2, 16, D);
        assert_eq!(mc.propose(ProcId(0), 12345), 12345);
        assert_eq!(mc.decision(), Some(12345));
        assert_eq!(mc.propose(ProcId(1), 54), 12345);
    }

    #[test]
    fn multi_concurrent_agreement_and_validity() {
        for trial in 0..20 {
            let n = 6;
            let mc = Arc::new(MultiConsensus::new(n, 12, D));
            let inputs: Vec<u64> = (0..n).map(|i| (i as u64 * 37 + trial) % 4096).collect();
            let handles: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let mc = Arc::clone(&mc);
                    std::thread::spawn(move || mc.propose(ProcId(i), v))
                })
                .collect();
            let outs: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(
                outs.windows(2).all(|w| w[0] == w[1]),
                "trial {trial}: {outs:?}"
            );
            assert!(
                inputs.contains(&outs[0]),
                "trial {trial}: decided a non-input"
            );
        }
    }

    #[test]
    fn multi_boundary_values() {
        let mc = MultiConsensus::new(1, 8, D);
        assert_eq!(mc.propose(ProcId(0), 255), 255);
        let mc2 = MultiConsensus::new(1, 8, D);
        assert_eq!(mc2.propose(ProcId(0), 0), 0);
    }

    #[test]
    #[should_panic(expected = "value exceeds width")]
    fn multi_rejects_oversized_value() {
        let mc = MultiConsensus::new(1, 4, D);
        let _ = mc.propose(ProcId(0), 16);
    }

    /// A space that tapes every access as `(is_write, index)`, usable as
    /// the native object's space and as the solo runner's bank.
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

    impl RegisterBank for Taped {
        fn read(&self, reg: RegId) -> u64 {
            RegisterSpace::read(self, reg.0)
        }
        fn write(&mut self, reg: RegId, value: u64) {
            RegisterSpace::write(self, reg.0, value)
        }
    }

    #[test]
    fn solo_propose_costs_three_plus_six_per_pid_bit() {
        // Read the standing announcement, announce, 6 per pid bit (the
        // solo fast path of Algorithm 1, the top bit's first read being
        // the probe of `decide` before the announcement), write `result`.
        // A delay would take the whole Δ, so a solo run well inside it ran
        // none.
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

    /// The driver makes a solo run's accesses and no others, in the
    /// spec's order (the default group lowering tapes a conditional write
    /// as its read and write, a group as its writes): Algorithm 1's, and
    /// the election's with and without the standing read.
    #[test]
    fn the_driver_makes_a_solo_specs_accesses_in_order() {
        for input in [false, true] {
            let (space, mut bank) = (Arc::new(Taped::default()), Taped::default());
            assert_eq!(
                NativeConsensus::on(Arc::clone(&space), D).propose(input),
                input
            );
            run_solo(&ConsensusSpec::new(vec![input]), ProcId(0), &mut bank, 50);
            assert_eq!(space.tape(), bank.tape(), "input={input}");
        }
        for n in [1usize, 2, 3, 5] {
            for (pid, standing) in [(0, false), (n - 1, true)] {
                let (space, mut bank) = (Arc::new(Taped::default()), Taped::default());
                let mc = MultiConsensus::on(Arc::clone(&space), n, 8, D);
                let v = pid as u64;
                let mut spec = ElectionSpec::new(n, 0, Ticks(100));
                if standing {
                    assert_eq!(mc.propose(ProcId(pid), v), v);
                    spec = spec.standing_read();
                } else {
                    let probe = mc.probe();
                    assert_eq!(mc.propose_probed(ProcId(pid), v, probe, false), v);
                }
                assert_eq!(
                    run_solo(&spec, ProcId(pid), &mut bank, 500).decision(),
                    Some(v)
                );
                let mut tape = space.tape();
                if !standing {
                    // The probe reads `result` before the spec's first
                    // read, of the top bit's `decide`.
                    assert_eq!(tape.remove(0), (false, 0), "n={n}");
                }
                assert_eq!(tape, bank.tape(), "n={n} pid={pid}");
            }
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
    /// count, as the hand-written native bodies visited them: a solo
    /// Algorithm 1 round; one per pid bit of a solo multivalued proposal,
    /// the first `consensus.round` the probe's; and a proposer that adopts
    /// another pid's value, its top instance decided already.
    #[test]
    fn the_injection_point_tapes_are_the_native_bodies() {
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
        // p1 decides pid bit 1 and crashes at the top of bit 0's instance;
        // p2 finds bit 1 decided against it, adopts p1, and decides bit 0.
        let mc = MultiConsensus::new(4, 8, D);
        let _session = ChaosSession::install(&[crash_after_first_pid_bit()]);
        let crashed = chaos::run_as(ProcId(1), || mc.propose(ProcId(1), 5));
        assert!(crashed.recoverable_after().is_some());
        let tape = points_of(ProcId(2), || assert_eq!(mc.propose(ProcId(2), 9), 5));
        assert_eq!(tape, [&[ROUND][..], &round].concat());
    }

    #[test]
    fn agreement_and_validity_where_pid_prefixes_name_no_process() {
        // n = 3, 5, 6 are not powers of two: some pid prefixes name no
        // process. Eight threads per trial: the n proposers, and readers
        // that return the first decision `result` shows them.
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

    /// p1 (of n = 4, two pid bits) announces `v1`, decides pid bit 1, and
    /// crashes recoverably at the top of its second instance: visit 1 of
    /// `consensus.round` is the first instance's one loop check, which
    /// takes the probed `decide` and, deciding, returns without another.
    fn crash_after_first_pid_bit() -> Fault {
        Fault {
            pid: ProcId(1),
            point: points::CONSENSUS_ROUND,
            nth: 2,
            action: FaultAction::CrashRecover(Duration::ZERO),
        }
    }

    /// Whether `tape`'s last access is the decisive one of an object of
    /// `n = 4` whose cell `i` is parent index `at(i)`: pid bit 1's
    /// `decide` written, and nothing of pid bit 0's instance touched —
    /// the crash of [`crash_after_first_pid_bit`] landed at the top of
    /// the second instance.
    fn crashed_at_the_second_instance(tape: &[(bool, u64)], at: impl Fn(u64) -> u64) -> bool {
        let bit = |k: u64, reg: u64| at(1 + 4 + k + 2 * reg);
        let bit0: Vec<u64> = (0..3 * 4).map(|reg| bit(0, reg)).collect();
        tape.last() == Some(&(true, bit(1, 0))) && tape.iter().all(|(_, i)| !bit0.contains(i))
    }

    #[test]
    fn recovered_incarnation_proposes_the_standing_value() {
        // On the parent's value bits this schedule panicked: the new
        // incarnation overwrote announce[1] with v2, so at bit 6 (decided
        // 0 by v1's prefix 0b10) `adopt` found no announced value with
        // that prefix and hit its `unreachable!`.
        let (v1, v2, v_early, v_late) = (0b1000_0000, 0b1111_1111, 0b0000_0001, 0b0000_0011);
        let space = Arc::new(Taped::default());
        let mc = MultiConsensus::on(Arc::clone(&space), 4, 8, D);
        let _session = ChaosSession::install(&[crash_after_first_pid_bit()]);
        let first = chaos::run_as(ProcId(1), || mc.propose(ProcId(1), v1));
        assert!(first.recoverable_after().is_some(), "p1 crashed");
        assert!(crashed_at_the_second_instance(&space.tape(), |i| i));
        assert_eq!(
            space.cells.read(1 + 4 + 1),
            1,
            "p1 decided pid bit 1: false"
        );
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
    fn recovered_session_commits_its_predecessors_batch() {
        // On the parent's value bits the slot decided a packed
        // (pid, offset): the new incarnation's proposal, offset 3, won
        // the bits its predecessor had left, so the new batch committed
        // and the predecessor's was orphaned; a crash further down the 32
        // bits, inside the offset, made `adopt` hit its `unreachable!`.
        let space = Arc::new(Taped::default());
        let obj = Universal::on(Arc::clone(&space), Counter, 4, 8, D);
        let _session = ChaosSession::install(&[crash_after_first_pid_bit()]);
        let crashed = chaos::run_as(ProcId(1), || {
            let mut s = obj.session(ProcId(1));
            s.announce_burst(&[10, 20]);
            s.drive_pending();
        });
        assert!(crashed.recoverable_after().is_some(), "p1 crashed");
        assert!(crashed_at_the_second_instance(&space.tape(), |i| {
            slot_cell(8, 0, i)
        }));
        assert_eq!(obj.audit().slots_decided, 0);
        // The new incarnation reads counter 2 and arena mark 3, publishes
        // both ops again as a batch at offset 3 and proposes it.
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
            "slot 0 commits the predecessor's batch"
        );
        assert_eq!(
            obj.arena.read(obj.idx_arena(1, 3)),
            2,
            "the new batch was published, and is orphaned"
        );
        assert_eq!(obj.invoke(ProcId(2), 5), 35);
        let audit = obj.audit();
        assert!(audit.complete(), "{audit:?}");
        assert_eq!(audit.committed, vec![0, 2, 1, 0]);
        assert_eq!(audit.batch_sizes, vec![2, 1]);
        assert_eq!(obj.snapshot(), 35);
    }

    #[test]
    fn universal_counter_sequential() {
        let obj = Universal::new(Counter, 1, 8, D);
        assert_eq!(obj.invoke(ProcId(0), 5), 5);
        assert_eq!(obj.invoke(ProcId(0), 7), 12);
        assert_eq!(obj.snapshot(), 12);
    }

    #[test]
    fn universal_counter_concurrent_total_is_exact() {
        for _ in 0..5 {
            let n = 4;
            let per = 8;
            let obj = Arc::new(Universal::new(Counter, n, n * per + 4, D));
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let obj = Arc::clone(&obj);
                    std::thread::spawn(move || {
                        for _ in 0..per {
                            obj.invoke(ProcId(i), 1);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(obj.snapshot(), (n * per) as u64);
        }
    }

    #[test]
    fn universal_counter_responses_are_distinct_and_dense() {
        // Each +1 returns the counter value at its linearization point:
        // the multiset of responses must be exactly {1..=total}.
        let n = 4;
        let per = 6;
        let obj = Arc::new(Universal::new(Counter, n, n * per + 4, D));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let obj = Arc::clone(&obj);
                std::thread::spawn(move || {
                    (0..per)
                        .map(|_| obj.invoke(ProcId(i), 1))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (1..=(n * per) as u64).collect();
        assert_eq!(all, expected, "responses must form a dense linearization");
    }

    #[test]
    fn universal_queue_fifo_single_process() {
        let obj = Universal::new(FifoQueue, 1, 16, D);
        obj.invoke(ProcId(0), FifoQueue::enqueue_op(10));
        obj.invoke(ProcId(0), FifoQueue::enqueue_op(20));
        let r1 = obj.invoke(ProcId(0), FifoQueue::DEQUEUE);
        let r2 = obj.invoke(ProcId(0), FifoQueue::DEQUEUE);
        let r3 = obj.invoke(ProcId(0), FifoQueue::DEQUEUE);
        assert_eq!(FifoQueue::decode_dequeue(r1), Some(10));
        assert_eq!(FifoQueue::decode_dequeue(r2), Some(20));
        assert_eq!(FifoQueue::decode_dequeue(r3), None);
    }

    #[test]
    fn universal_queue_concurrent_no_loss_no_dup() {
        let n = 3;
        let per = 5;
        let obj = Arc::new(Universal::new(FifoQueue, n, 2 * n * per + 8, D));
        // Phase 1: concurrent enqueues of distinct values.
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let obj = Arc::clone(&obj);
                std::thread::spawn(move || {
                    for k in 0..per {
                        obj.invoke(ProcId(i), FifoQueue::enqueue_op((i * 100 + k) as u32));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Phase 2: concurrent dequeues drain exactly the enqueued set.
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let obj = Arc::clone(&obj);
                std::thread::spawn(move || {
                    (0..per)
                        .filter_map(|_| {
                            FifoQueue::decode_dequeue(obj.invoke(ProcId(i), FifoQueue::DEQUEUE))
                        })
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        let mut got: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        got.sort_unstable();
        let mut want: Vec<u32> = (0..n)
            .flat_map(|i| (0..per).map(move |k| (i * 100 + k) as u32))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "every enqueued value dequeued exactly once");
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn universal_capacity_exhaustion_panics() {
        let obj = Universal::new(Counter, 1, 2, D);
        obj.invoke(ProcId(0), 1);
        obj.invoke(ProcId(0), 1);
        obj.invoke(ProcId(0), 1);
    }

    #[test]
    fn session_burst_commits_in_one_batch() {
        let obj = Universal::new(Counter, 2, 8, D).with_max_batch(16);
        let mut session = obj.session(ProcId(0));
        let first = session.announce_burst(&[1, 2, 3, 4]);
        assert_eq!(first, 0);
        session.drive_pending();
        let responses: Vec<_> = session.take_responses().collect();
        assert_eq!(responses, vec![(0, 1), (1, 3), (2, 6), (3, 10)]);
        let commits: Vec<_> = session.take_commits().collect();
        assert_eq!(commits.len(), 1, "one consensus decision, four ops");
        assert_eq!(commits[0].size, 4);
        assert_eq!(commits[0].proposer, ProcId(0));
        assert_eq!(obj.snapshot(), 10);
    }

    #[test]
    fn session_respects_max_batch() {
        let obj = Universal::new(Counter, 1, 8, D).with_max_batch(3);
        let mut session = obj.session(ProcId(0));
        session.announce_burst(&[1; 7]);
        session.drive_pending();
        assert_eq!(
            session.take_commits().map(|c| c.size).collect::<Vec<_>>(),
            vec![3, 3, 1],
            "a 7-op burst splits into max_batch-sized batches"
        );
        assert_eq!(obj.snapshot(), 7);
    }

    /// A recovered session's own batches can hold its predecessor's
    /// orphans: one cut by `max_batch` inside them, then one whose stretch
    /// starts among them and ends with this session's op. Both stretches
    /// are read back whole.
    #[test]
    fn own_batches_over_a_predecessors_orphans_read_them_back() {
        let obj = Universal::new(Counter, 1, 8, D).with_max_batch(2);
        // The predecessor announces and crashes before combining.
        obj.session(ProcId(0)).announce_burst(&[1, 2, 3]);
        let mut session = obj.session(ProcId(0));
        assert_eq!(session.announce(4), 3);
        session.drive_pending();
        assert_eq!(
            session.take_responses().collect::<Vec<_>>(),
            vec![(0, 1), (1, 3), (2, 6), (3, 10)],
            "orphans, then the own op, in announce order"
        );
        let sizes: Vec<_> = session.take_commits().map(|c| c.size).collect();
        assert_eq!(sizes, [2, 2]);
        assert!(obj.audit().complete());
    }

    #[test]
    fn sessions_combine_across_processes() {
        // Two processes announce bursts concurrently and drive; every op
        // commits exactly once and the final state is exact.
        for _ in 0..10 {
            let n = 4;
            let per = 16;
            let obj = Arc::new(Universal::new(Counter, n, 64, D).with_max_batch(256));
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let obj = Arc::clone(&obj);
                    std::thread::spawn(move || {
                        let mut session = obj.session(ProcId(i));
                        session.announce_burst(&vec![1u64; per]);
                        session.drive_pending();
                        let applied = session.take_responses().len();
                        applied
                    })
                })
                .collect();
            let applied: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(applied, n * per, "each own op applied exactly once");
            assert_eq!(obj.snapshot(), (n * per) as u64);
            let audit = obj.audit();
            assert!(audit.complete(), "{audit:?}");
            assert_eq!(audit.total_committed(), (n * per) as u64);
        }
    }

    #[test]
    fn audit_is_contiguous_and_complete_at_quiescence() {
        let obj = Universal::new(Counter, 2, 16, D);
        let mut s0 = obj.session(ProcId(0));
        let mut s1 = obj.session(ProcId(1));
        s0.announce_burst(&[5, 6]);
        s1.announce(7);
        s0.drive_pending();
        s1.drive_pending();
        let audit = obj.audit();
        assert!(audit.complete(), "{audit:?}");
        assert_eq!(audit.committed, vec![2, 1]);
        assert_eq!(audit.total_committed(), 3);
        assert_eq!(
            audit.batch_sizes.iter().sum::<usize>(),
            3,
            "batches partition the committed ops"
        );
    }

    #[test]
    fn fresh_session_resumes_from_registers() {
        // A new session for the same pid (e.g. a recovered incarnation)
        // picks up the announce counter and arena mark from the space and
        // replays the full log.
        let obj = Universal::new(Counter, 2, 16, D);
        let mut s = obj.session(ProcId(0));
        s.announce_burst(&[10, 20]);
        s.drive_pending();
        drop(s);
        let mut s2 = obj.session(ProcId(0));
        s2.catch_up();
        assert_eq!(s2.pending(), 0, "all announced ops already committed");
        let seq = s2.announce(30);
        assert_eq!(seq, 2, "sequence numbers continue across sessions");
        s2.drive_pending();
        assert_eq!(
            s2.take_responses().collect::<Vec<_>>(),
            vec![(0, 10), (1, 30), (2, 60)]
        );
        assert_eq!(obj.snapshot(), 60);
    }

    /// The parent indices of announce cell `i`, arena cell `i` and cell `i`
    /// of slot `s`'s consensus on an object of `capacity` slots (the
    /// layout documented on [`Universal`] and [`MultiConsensus`]).
    fn announce(i: u64) -> u64 {
        REGIONS * i + REGION_ANNOUNCE
    }
    fn arena(i: u64) -> u64 {
        REGIONS * i + REGION_ARENA
    }
    fn slot_cell(capacity: u64, s: u64, i: u64) -> u64 {
        REGIONS * (i * capacity + s) + REGION_SLOTS
    }

    /// The cells, with multiplicity, that process 0 of `n` touches while
    /// it opens a session on an object of `capacity` slots whose slots
    /// below `s` are decided for other processes' batches (and already
    /// applied — their read-back is not listed), announces `k` ops and
    /// drives them through slot `s` alone. One pid bit: `n ≤ 2`. Its own
    /// decision is applied from memory: the record and payloads it wrote
    /// are not read back.
    fn own_decision_accesses(
        n: u64,
        k: u64,
        capacity: u64,
        s: u64,
    ) -> BTreeMap<(bool, u64), usize> {
        assert!(n <= 2, "one pid bit");
        let slot = |i: u64| slot_cell(capacity, s, i);
        // Algorithm 1 register `j` of the only pid bit's instance.
        let alg1 = |j: u64| slot(1 + n + j);
        let (decide, y1, x1_false, x1_true) = (alg1(0), alg1(3), alg1(4), alg1(5));
        let mut cells = vec![
            (false, announce(0)), // session: own counter…
            (false, announce(1)), // …and arena mark
            (true, announce(0)),  // announce counter
            (false, slot(0)),     // the probe: slot s undecided…
            (false, decide),      // …and the top bit's `decide`, unset
            (true, arena(0)),     // record length
            (true, announce(1)),  // arena mark
            (true, slot(1)),      // announce (no standing read: mark 0)
            (true, x1_false),     // Algorithm 1's solo fast path, v = 0
            (false, y1),
            (true, y1),
            (false, x1_true),
            (true, decide),
            (true, slot(0)), // result
        ];
        if n == 2 {
            cells.push((false, announce(2))); // the other counter
        }
        for i in 0..k {
            cells.extend([
                (true, announce(2 * n + i * n)), // payload
                (true, arena((1 + i) * n)),      // record entry
            ]);
        }
        multiset(cells)
    }

    fn multiset(cells: Vec<(bool, u64)>) -> BTreeMap<(bool, u64), usize> {
        let mut multiset = BTreeMap::new();
        for cell in cells {
            *multiset.entry(cell).or_insert(0) += 1;
        }
        multiset
    }

    fn taped_multiset(space: &Taped) -> BTreeMap<(bool, u64), usize> {
        multiset(space.tape.lock().unwrap().drain(..).collect())
    }

    /// Vectoring changes rounds, not accesses, and the own-batch apply
    /// drops exactly the winner's three read-back groups — the record's
    /// length, its entries, the payloads — from a solo decision, counted
    /// per cell through the default run loop.
    #[test]
    fn a_solo_decision_touches_exactly_its_cells_per_cell() {
        for n in [1usize, 2] {
            for k in [1u64, 8] {
                let space = Arc::new(Taped::default());
                let obj = Universal::on(Arc::clone(&space), Counter, n, 4, D);
                let mut session = obj.session(ProcId(0));
                session.announce_burst(&vec![1; k as usize]);
                session.drive_pending();
                let want = own_decision_accesses(n as u64, k, 4, 0);
                assert_eq!(taped_multiset(&space), want, "n={n} k={k}");
            }
        }
    }

    /// The kept read-back path, at n = 2: process 0's first slot is
    /// already decided for process 1's published record, so process 0
    /// reads that record back — length, entries and process 1's payloads
    /// — before its own decision at slot 1 skips its own.
    #[test]
    fn a_slot_won_by_another_process_is_read_back() {
        let (n, j) = (2u64, 3u64);
        for k in [1u64, 8] {
            let space = Arc::new(Taped::default());
            let obj = Universal::on(Arc::clone(&space), Counter, n as usize, 4, D);
            let mut other = obj.session(ProcId(1));
            other.announce_burst(&vec![2; j as usize]);
            other.drive_pending();
            space.tape.lock().unwrap().clear();
            let mut session = obj.session(ProcId(0));
            session.announce_burst(&vec![1; k as usize]);
            session.drive_pending();
            assert_eq!(
                session
                    .take_commits()
                    .map(|c| c.proposer)
                    .collect::<Vec<_>>(),
                [ProcId(1), ProcId(0)]
            );
            let mut want = own_decision_accesses(n, k, 4, 1);
            let read_back = [
                (false, slot_cell(4, 0, 0)),     // the probe: slot 0 decided,
                (false, slot_cell(4, 0, 1 + n)), // its `decide` read with it
                (false, arena(1)),               // process 1's record length
            ]
            .into_iter()
            .chain((0..j).flat_map(|i| {
                [
                    (false, arena(1 + (1 + i) * n)),      // entry
                    (false, announce(2 * n + 1 + i * n)), // payload
                ]
            }));
            for cell in read_back {
                *want.entry(cell).or_insert(0) += 1;
            }
            assert_eq!(taped_multiset(&space), want, "k={k}");
        }
    }

    /// A three-replica quorum network whose links all take 20 µs: every
    /// round reaches every replica, so no read needs a write-back.
    fn lockstep_net() -> Arc<tfr_net::Network> {
        let mut cfg = tfr_net::NetConfig::new(1, 3, 0x27);
        cfg.min_delay = Duration::from_micros(20);
        cfg.max_delay = cfg.min_delay;
        Arc::new(tfr_net::Network::new(cfg))
    }

    /// Over [`lockstep_net`], one solo decision at n = 1 opens exactly 7
    /// quorum rounds, whatever the batch size: the payload run and then
    /// the counter (owned, one ordered group) with the next slot's probe
    /// of `result` and `decide`, the record and the mark and then the
    /// slot's announcement (owned, one ordered group), and Algorithm 1's
    /// five — the agreed write of `x`, the conditional write of `y`
    /// (two), the read of `x[1, v̄]` and the agreed write of `decide` with
    /// the agreed `result`. With the two ordered pairs in rounds of their
    /// own it opened 9; with each access its own round, 12; with the
    /// entry read of `decide`, the loop check after deciding and `y`'s
    /// read apart from its write, 15; with those three writes queried too
    /// and the standing read, 19; with every write queried and the winner
    /// reading its own batch back, 27; before register runs, 6k + 23 (29,
    /// 71 and 407 rounds for k = 1, 8, 64).
    #[test]
    fn a_solo_decision_costs_7_quorum_rounds_at_any_batch_size() {
        for k in [1usize, 8, 64] {
            let net = lockstep_net();
            let control = net.control();
            let obj = Universal::on(Arc::new(net.space()), Counter, 1, 4, D);
            let mut session = obj.session(ProcId(0));
            let before = control.quorum_rounds();
            session.announce_burst(&vec![1; k]);
            session.drive_pending();
            assert_eq!(control.quorum_rounds() - before, 7, "k={k}");
            assert_eq!(session.take_responses().len(), k);
        }
    }

    /// A session that opens after a predecessor proposed (a nonzero arena
    /// mark) reads its standing announcement at its first proposal only,
    /// in one group with its record and mark, and then announces: once it
    /// has replayed the predecessor's slot, its first decision opens 8
    /// rounds over [`lockstep_net`], its next 7.
    #[test]
    fn a_recovered_session_reads_its_standing_announcement_once() {
        let net = lockstep_net();
        let control = net.control();
        let obj = Universal::on(Arc::new(net.space()), Counter, 1, 4, D);
        obj.invoke(ProcId(0), 1);
        let mut session = obj.session(ProcId(0));
        session.catch_up(); // slot 0, the predecessor's, read back
        for want in [8, 7] {
            let before = control.quorum_rounds();
            session.announce(1);
            session.drive_pending();
            assert_eq!(control.quorum_rounds() - before, want);
        }
        assert_eq!(obj.snapshot(), 3);
    }

    /// Serves `sessions` of one object by hand, one group per session per
    /// step, in lockstep, and returns how many `delay(Δ)`s they waited out.
    fn lockstep<S: RegisterSpace>(
        obj: &Universal<Counter, S>,
        sessions: &mut [&mut Session<'_, Counter, S>],
    ) -> usize {
        let mut delays = 0;
        loop {
            let mut moved = false;
            for session in sessions.iter_mut() {
                match session.wait() {
                    Wait::Done => continue,
                    Wait::Delay(delta) => {
                        std::thread::sleep(delta);
                        delays += 1;
                        session.resume(0);
                    }
                    Wait::Group(between) => {
                        let mut between = move || between.fire();
                        let mut group: Vec<_> =
                            session.group(&mut between).into_accesses().collect();
                        obj.space().access_all(&mut group);
                        let seen = seen(&group);
                        drop(group);
                        session.resume(seen);
                    }
                }
                moved = true;
            }
            if !moved {
                return delays;
            }
        }
    }

    /// Two sessions of one object, their machines stepped by hand one group
    /// at a time in lockstep, both combine at slot 0 and contend in its pid
    /// election: each writes its `x` before reading the other's, so both
    /// reach Algorithm 1's `delay(Δ)` ([`Wait::Delay`]). Resumed after it,
    /// they agree on process 0's batch, which holds both ops.
    #[test]
    fn lockstep_sessions_meet_at_a_delay_and_agree() {
        let obj = Universal::new(Counter, 2, 4, Duration::from_micros(5));
        let (mut a, mut b) = (obj.session(ProcId(0)), obj.session(ProcId(1)));
        a.announce(1);
        b.announce(2);
        a.start_drive();
        b.start_drive();
        assert_eq!(lockstep(&obj, &mut [&mut a, &mut b]), 2, "both delay once");
        let winners: Vec<_> = a
            .take_commits()
            .map(|c| (c.slot, c.proposer, c.size))
            .collect();
        assert_eq!(winners, [(0, ProcId(0), 2)]);
        assert_eq!(
            b.take_commits().map(|c| c.proposer).collect::<Vec<_>>(),
            [ProcId(0)]
        );
        assert_eq!(a.take_responses().collect::<Vec<_>>(), [(0, 1)]);
        assert_eq!(b.take_responses().collect::<Vec<_>>(), [(0, 3)]);
        assert!(obj.audit().complete());
    }

    #[test]
    fn universal_over_explicit_space_matches_native() {
        use tfr_registers::space::NativeSpace;
        let space = Arc::new(NativeSpace::new());
        let obj = Universal::on(Arc::clone(&space), Counter, 2, 8, D);
        assert_eq!(obj.invoke(ProcId(0), 3), 3);
        assert_eq!(obj.invoke(ProcId(1), 4), 7);
        assert_eq!(obj.snapshot(), 7);
        // The construction's state genuinely lives in the space.
        assert!(
            (0..64).any(|i| space.read(i) != 0),
            "register-resident state"
        );
    }
}
