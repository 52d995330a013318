//! The client side of the quorum protocol: [`QuorumSpace`], a
//! [`RegisterSpace`] whose every cell is an ABD multi-writer
//! multi-reader atomic register replicated across the cluster.
//!
//! Every operation is built from the same primitive — a *quorum round*
//! that sends one payload to every replica and collects acknowledgements
//! until a majority (`R/2 + 1`) has answered, retransmitting to the
//! silent replicas on a timer. The network has no thread of its own: the
//! round *is* the delivery loop — pump every due message (anybody's),
//! take its own acks, wait until the next message falls due or the timer
//! expires (see [`crate::net`] for why that wait can never miss an ack).
//! Because any two majorities intersect, a completed round is guaranteed
//! to touch at least one replica that saw every previously completed
//! round; that intersection is the whole correctness argument.
//!
//! # Groups
//!
//! The space serves a **group** of accesses
//! ([`RegisterSpace::access_all`]) in at most two rounds, one message per
//! replica per phase, however many accesses and cells the group holds. A
//! single `read` / `write` / `read_run` / `write_agreed` / … is a group
//! of one; there is one code path.
//!
//! * **Phase 1** carries the query of every read run, queried write run
//!   and conditional write, and the store of every owned and agreed write
//!   run, stamped with one fresh version `reserve_ts(0)`: an ordered
//!   group (below).
//! * Between the phases, each conditional write whose query found its
//!   cell unset runs its `between`.
//! * **Phase 2**, skipped when empty, carries the write-backs the reads
//!   need, cells alone or whole ordered groups, and the stores of the
//!   queried and conditional writes, stamped with one fresh version above
//!   every version their queries saw.
//!
//! What each access does with its share of the two phases:
//!
//! * **write run** ([`WriteKind::Queried`]) — its query learns every
//!   cell's highest version from a majority; its store carries the
//!   phase-2 version, above everything it saw in any cell (and above
//!   everything the handle ever issued, via a CAS floor).
//! * **owned write run** ([`WriteKind::Owned`]) — the phase-1 store
//!   alone, stamped one past the handle's CAS floor. The caller promises
//!   that every write those cells ever receive comes through this one
//!   handle, and that is what makes the query redundant. The query exists
//!   to lift a write above *other* writers' versions; an owned cell has
//!   none, and every version it ever carried — on any replica, including
//!   a store a crashed caller left stranded on a minority — was issued by
//!   this handle, so it lies at or below the floor. The new version
//!   therefore beats all of them everywhere, which is all a query would
//!   have established. The promise is the caller's (classic
//!   single-writer ABD's regime, one round trip per write); in debug
//!   builds the replicas check it, pinning an owned cell to the `wid` of
//!   its first owned store and panicking on any store that carries
//!   another.
//! * **agreed write run** ([`WriteKind::Agreed`]) — the phase-1 store
//!   alone too, from any handle. The caller promises that every write the
//!   cell ever receives carries this one value. A query exists to order a
//!   write after other writers' values; an agreed cell has no other
//!   value, so *any* version above [`Version::ZERO`] is correct, and
//!   versions from different handles may land in any order. A reader's
//!   query returns 0 (no write yet on the majority it asked) or the
//!   value, and its write-back is unchanged. In debug builds a replica
//!   panics on an agreed store whose value differs from the nonzero value
//!   it holds.
//! * **read run** — its query takes each cell's maximum `(ts, wid)`
//!   answer; phase 2 writes *back* the cells whose maximum some majority
//!   member might miss — decided per cell, so a cell every ack already
//!   carries at its maximum (committed on a majority) is left out. The
//!   write-back is what stops a later read from seeing an older value
//!   (the new/old inversion ABD exists to prevent).
//! * **conditional write** ([`Access::WriteIfUnset`]) — a read whose
//!   query doubles as a queried write's. If every ack carries
//!   [`Version::ZERO`], no write to the cell completed before the call,
//!   so a phase-2 store is exactly what a queried write whose query saw
//!   nothing would send: the caller's `between()` runs, then phase 2.
//!   Otherwise nothing is written and the access is exactly a read,
//!   write-back included. The read is linearized at the query, and the
//!   write, whose interval opens before the query, right after it.
//!
//! Each cell keeps its own version and its own linearization point inside
//! the group, exactly as if it had been accessed alone: a phase-1 store
//! is linearized when it reaches a majority, a query's answer at the
//! query, a phase-2 store or write-back when phase 2 reaches a majority,
//! all inside the call. Per-register atomicity composes, because
//! linearizability is local, and the accesses of a group are concurrent
//! with one another. Across cells one more thing is kept: the order of
//! the group's phase-1 stores, its owned and agreed writes (what
//! [`RegisterSpace`]'s groups promise).
//!
//! # Ordered groups
//!
//! A writer that crashes, or is cut off, with its phase-1 request on a
//! minority leaves every cell of it pending there. A reader that finds
//! one such cell, say the counter of a payload run and its counter, at
//! fewer than a majority writes it back; if it wrote back that cell
//! alone, a later read from another majority would see the counter and
//! miss the payloads, and each cell would still linearize on its own.
//! So the stores travel and are repaired together:
//!
//! * **The tag.** Every phase-1 store of a group carries one fresh
//!   version, and the request carries them as one [`Ordered`] group of
//!   its [`Issuer`]; the version is the group's tag.
//! * **The issuer**, the key a replica keeps groups under, is this
//!   handle's writer id and the calling thread. A thread's quorum round
//!   blocks until a majority has acked, so an issuer sends its next
//!   request only once its last one is stored on a majority: only its
//!   newest group can be partial. A process is not such an issuer: a
//!   recovered incarnation may send through the same handle while its
//!   predecessor's request is stranded, and keyed by process, its group
//!   would displace the stranded one. A worker that sends several shards'
//!   groups in one call is one issuer with one bigger group.
//! * **The kept group.** A replica stores a group's cells and keeps the
//!   group whole, one `Arc` clone of the request's cells: the newest tag
//!   per issuer, so memory is one group per issuer. A newer tag of the
//!   same issuer replaces the kept group; an older one, a late retransmit,
//!   does not.
//! * **The ack** for a queried cell whose held version is a kept tag
//!   carries that group, once per ack.
//! * **The whole-group write-back.** A read that would write back such a
//!   cell, because fewer than a majority hold its newest version, writes
//!   back the whole group in its phase 2 with the original versions, and
//!   the replicas keep it as they kept the original. A cell whose newest
//!   version no ack carries a group for is written back alone: the
//!   replicas holding it keep a newer group of its issuer, whose request
//!   went out only once this one was on a majority, or hold it from a
//!   lone write-back, which by the same argument happened only then.
//!
//! So once a read has returned a cell of a group, every cell of the group
//! holds that version or a newer one on a majority. The check of this is
//! `tfr-linearize`'s per-writer order (`order`), and
//! [`QuorumSpace::with_unrepaired_ordered_groups`] is its seeded mutant.
//!
//! Liveness needs a connected majority: under a partition that strands
//! clients with a minority, rounds retransmit forever — operations
//! *stall but never regress* — and complete after
//! [`crate::NetControl::heal`]. Safety never depends on timing, which is
//! this backend's whole point in a workspace about timing failures: the
//! Δ-tuned algorithms keep their *own* guarantees even when "shared
//! memory" is a lossy network.

use crate::msg::{
    Issuer, Message, NodeId, Ordered, Payload, Run, Stored, Version, Versioned, WriteKind,
};
use crate::net::{wait_until, Network};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tfr_registers::space::{Access, RegisterSpace};
use tfr_registers::ProcId;
use tfr_telemetry::{current_pid, current_span_id, EventKind, Span};

/// A replicated register array: the `tfr-net` implementation of
/// [`RegisterSpace`]. Obtain one with [`Network::space`]; every handle
/// carries its own unique writer id.
///
/// Handles are cheap (an [`Arc`], the writer id, the timestamp floor and
/// five mutant flags) and `Send + Sync`; a single handle shared by
/// several threads is safe but serializes nothing — each group is its
/// own quorum rounds. Agreed writes may come through any handle. Cells
/// written with owned writes must be written through one handle for the
/// life of the data, so an object that owns cells
/// (`tfr_core::universal::Universal`) keeps one shared handle for all its
/// sessions.
pub struct QuorumSpace {
    net: Arc<Network>,
    /// This handle's unique writer id (tie-breaker of equal timestamps).
    wid: u64,
    /// Highest timestamp this handle has issued — a CAS floor that keeps
    /// its timestamps strictly increasing even across concurrent writes
    /// through the same handle, and the whole basis of owned writes.
    issued: AtomicU64,
    /// The seeded mutant of [`QuorumSpace::with_first_cell_write_back`].
    first_cell_write_back: bool,
    /// The seeded mutant of [`QuorumSpace::with_store_only_writes`].
    store_only_writes: bool,
    /// The seeded mutant of
    /// [`QuorumSpace::with_unqueried_conditional_writes`].
    unqueried_conditional_writes: bool,
    /// The seeded mutant of [`QuorumSpace::with_unrepaired_groups`].
    unrepaired_groups: bool,
    /// The seeded mutant of
    /// [`QuorumSpace::with_unrepaired_ordered_groups`].
    unrepaired_ordered_groups: bool,
}

/// The issuing threads' ids: each thread takes the next the first time
/// it sends an ordered group.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's issuer id, unique in the process's lifetime.
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) + 1;
}

impl QuorumSpace {
    pub(crate) fn new(net: Arc<Network>) -> QuorumSpace {
        let wid = net.shared().next_wid.fetch_add(1, Ordering::SeqCst) + 1;
        QuorumSpace {
            net,
            wid,
            issued: AtomicU64::new(0),
            first_cell_write_back: false,
            store_only_writes: false,
            unqueried_conditional_writes: false,
            unrepaired_groups: false,
            unrepaired_ordered_groups: false,
        }
    }

    /// **A seeded mutant, for the linearizability oracle's negative
    /// tests only.** The handle decides a read run's write-back once for
    /// the whole run, from its first cell: if the first cell is committed
    /// on a majority, no cell is written back. A later cell whose newest
    /// version sits on a minority is then returned without being made
    /// durable, and a later read can see the older value.
    #[doc(hidden)]
    pub fn with_first_cell_write_back(mut self) -> QuorumSpace {
        self.first_cell_write_back = true;
        self
    }

    /// **A seeded mutant, for the linearizability oracle's negative
    /// tests only.** The handle serves *every* write as an agreed write
    /// would, in phase 1 stamped one past its own floor, but its stores
    /// stay queried, so the debug replica check of agreed stores does not
    /// see them. Two handles writing different values to one cell then
    /// order by their private floors, not by real time: the later write
    /// can carry the lower version and vanish.
    #[doc(hidden)]
    pub fn with_store_only_writes(mut self) -> QuorumSpace {
        self.store_only_writes = true;
        self
    }

    /// **A seeded mutant, for the linearizability oracle's negative
    /// tests only.** The handle serves a conditional write without its
    /// query: it stores the value in phase 2, stamped one past its own
    /// floor, and reports 0 whatever the cell held. A write to a set cell
    /// then overwrites it, or vanishes under a version from nowhere, and
    /// its read of 0 comes after a write that had completed.
    #[doc(hidden)]
    pub fn with_unqueried_conditional_writes(mut self) -> QuorumSpace {
        self.unqueried_conditional_writes = true;
        self
    }

    /// **A seeded mutant, for the linearizability oracle's negative
    /// tests only.** The handle completes a group of two or more accesses
    /// on its phase-1 acks, skipping the write-backs its reads need: a
    /// read that returns a value only a minority holds leaves it there,
    /// and a later read can see the older value. Groups of one are served
    /// correctly.
    #[doc(hidden)]
    pub fn with_unrepaired_groups(mut self) -> QuorumSpace {
        self.unrepaired_groups = true;
        self
    }

    /// **A seeded mutant, for the per-writer-order oracle's negative
    /// tests only.** The handle ignores the ordered groups its acks
    /// carry: a read that writes back a cell whose version is a group's
    /// tag writes back that one cell, as if no group had been sent. A
    /// writer's group stranded on a minority then reaches a majority cell
    /// by cell: a read sees its later cell, and a later read can miss an
    /// earlier one. Every read is still atomic per cell.
    #[doc(hidden)]
    pub fn with_unrepaired_ordered_groups(mut self) -> QuorumSpace {
        self.unrepaired_ordered_groups = true;
        self
    }

    /// **A seeded mutant, for the linearizability oracle's negative
    /// tests only.** Resets the handle's timestamp floor to zero, as a
    /// writer that recovered without it would: its next owned writes
    /// reuse timestamps it already issued, lose to its own older versions
    /// at the replicas, and vanish.
    #[doc(hidden)]
    pub fn forget_timestamp_floor(&self) {
        self.issued.store(0, Ordering::SeqCst);
    }

    /// The writer id stamped on this handle's writes.
    pub fn writer_id(&self) -> u64 {
        self.wid
    }

    /// Which client node this thread's traffic leaves from: worker pids
    /// fold onto clients by `pid mod clients`; unregistered threads use
    /// client 0.
    fn client(&self) -> usize {
        let clients = self.net.config().clients;
        current_pid().map_or(0, |p| p.0 % clients)
    }

    /// Runs one quorum round: sends `payload` to every replica, then
    /// delivers the network's due traffic itself while it waits for a
    /// majority of acknowledgements, retransmitting to the replicas that
    /// stay silent. Returns the collected acks (at least a majority,
    /// keyed by replica index, at most one per replica).
    fn quorum_round(&self, client: usize, payload: Payload) -> Vec<(usize, Payload)> {
        let shared = self.net.shared();
        let cfg = &shared.cfg;
        let majority = cfg.majority();
        let rid = shared.open_round();

        // Outgoing requests carry the ambient causal span (the enclosing
        // quorum-phase span); replies echo it, tying the whole round trip
        // into the client's span tree.
        let span = current_span_id();
        let mut got: Vec<Option<Payload>> = vec![None; cfg.replicas];
        let mut count = 0;
        let mut inbox = Vec::new();
        'round: loop {
            // (Re)transmit to every replica we have no answer from yet.
            let sent_at = Instant::now();
            let silent = got.iter().enumerate().filter(|(_, ack)| ack.is_none());
            shared.send(
                silent.map(|(i, _)| Message {
                    from: NodeId::Client(client),
                    to: NodeId::Replica(i),
                    rid,
                    span,
                    payload: payload.clone(),
                }),
                sent_at,
            );
            let deadline = sent_at + cfg.retransmit;
            loop {
                let now = Instant::now();
                let next_due = shared.poll(rid, now, &mut inbox);
                for (i, ack) in inbox.drain(..) {
                    if got[i].is_none() {
                        shared.trace.emit_current(EventKind::MsgRecv {
                            from: ProcId(cfg.clients + i),
                            reg: ack.reg(),
                            span,
                        });
                        got[i] = Some(ack);
                        count += 1;
                    }
                }
                if count >= majority {
                    break 'round;
                }
                if now >= deadline {
                    continue 'round; // timer expired: retransmit
                }
                // Nothing addressed to this round can fall due before the
                // head of the queue (the sleep invariant, see `net`).
                wait_until(next_due.map_or(deadline, |due| due.min(deadline)));
            }
        }
        shared.close_round(rid);
        got.into_iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (i, p)))
            .collect()
    }

    /// Reads register `index` with its version — the full ABD read
    /// (query, then write-back unless already committed on a majority).
    pub fn read_versioned(&self, index: u64) -> Versioned {
        let mut out = [Versioned::ZERO];
        self.read_run_versioned(index, 1, &mut out);
        out[0]
    }

    /// Reads the run `base + i·stride` into `out` with versions: a group
    /// of one read run, one query round, then one write-back round
    /// carrying only the cells a majority did not already hold at their
    /// maximum (skipped when there are none).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0 and `out` has more than one cell.
    pub fn read_run_versioned(&self, base: u64, stride: u64, out: &mut [Versioned]) {
        let mut values = vec![0; out.len()];
        let maxima = self.serve(&mut [Access::read_run(base, stride, &mut values)]);
        out.copy_from_slice(&maxima);
    }

    /// Serves `group` in its two phases (see the module docs) and returns
    /// the maximum version phase 1 saw of every queried cell, in the
    /// group's order.
    ///
    /// # Panics
    ///
    /// Panics if a run of several cells has a zero stride.
    fn serve(&self, group: &mut [Access<'_>]) -> Vec<Versioned> {
        let shared = self.net.shared();
        let trace = &shared.trace;
        let t0 = trace.now_ns();
        let mut writes = false;
        for access in group.iter() {
            let write = matches!(access, Access::WriteRun { .. });
            writes |= write;
            if let Some(reg) = access.cells().next() {
                trace.emit_current(EventKind::QuorumStart { reg, write });
            }
        }
        let op_span = Span::enter(trace, ["quorum.read", "quorum.write"][writes as usize]);
        let client = self.client();

        // Phase 1: every query, and every store that needs none.
        let run = |base, stride, len| Run::new(base, stride, len);
        let mut query = Vec::new();
        let mut early = Vec::new();
        let mut early_version = None;
        for access in group.iter() {
            match access {
                Access::ReadRun { base, stride, out } if !out.is_empty() => {
                    query.push(run(*base, *stride, out.len()))
                }
                Access::WriteRun {
                    base,
                    stride,
                    values,
                    kind,
                } if !values.is_empty() => {
                    let cells = run(*base, *stride, values.len());
                    if *kind == WriteKind::Queried && !self.store_only_writes {
                        query.push(cells);
                        continue;
                    }
                    let version = *early_version.get_or_insert_with(|| self.version(0));
                    early.extend(cells.regs().zip(values.iter()).map(|(reg, &value)| Stored {
                        reg,
                        data: Versioned { version, value },
                        kind: *kind,
                    }));
                }
                Access::WriteIfUnset { index, .. } if !self.unqueried_conditional_writes => {
                    query.push(run(*index, 1, 1))
                }
                _ => {}
            }
        }
        let cells: usize = query.iter().map(Run::len).sum();
        let mut maxima = vec![Versioned::ZERO; cells];
        let mut committed = vec![0usize; cells];
        let early: Arc<[Stored]> = early.into();
        // The groups the acks carry: the kept group of each tag a queried
        // cell held, once each.
        let mut carried: Vec<Ordered> = Vec::new();
        if !query.is_empty() || !early.is_empty() {
            let _phase = Span::enter(trace, "quorum.phase1");
            let own = (!early.is_empty()).then(|| Ordered {
                issuer: Issuer {
                    wid: self.wid,
                    thread: THREAD.with(|id| *id),
                },
                cells: Arc::clone(&early),
            });
            let request = Payload::grouped(query, [], Vec::from_iter(own));
            for (_, ack) in self.quorum_round(client, request) {
                let Payload::Ack {
                    data, mut groups, ..
                } = ack
                else {
                    continue;
                };
                if self.unrepaired_ordered_groups {
                    groups.clear(); // the mutant: as if no group was kept
                }
                for group in groups {
                    if !carried.iter().any(|c| c.tag() == group.tag()) {
                        carried.push(group);
                    }
                }
                for ((max, count), seen) in maxima.iter_mut().zip(&mut committed).zip(data) {
                    match seen.version.cmp(&max.version) {
                        std::cmp::Ordering::Greater => (*max, *count) = (seen, 1),
                        std::cmp::Ordering::Equal => *count += 1,
                        std::cmp::Ordering::Less => {}
                    }
                }
            }
        }

        // Between the phases: what the queries mean, access by access.
        let majority = shared.cfg.majority();
        let repair = !(self.unrepaired_groups && group.len() > 1);
        // A cell at a carried group's tag is written back with its whole
        // group, each group once; any other cell alone.
        let mut regroup: Vec<Ordered> = Vec::new();
        let mut repair_cell = |late: &mut Vec<Stored>, reg: u64, data: Versioned| match carried
            .iter()
            .find(|group| group.tag() == data.version)
        {
            Some(group) if !regroup.iter().any(|g| g.tag() == data.version) => {
                regroup.push(group.clone())
            }
            Some(_) => {}
            None => late.push(write_back(reg, data)),
        };
        let mut observed = Vec::new();
        let mut late = Vec::new();
        let mut fresh = Vec::new();
        let mut floor = 0;
        let mut at = 0;
        for access in group.iter_mut() {
            match access {
                Access::ReadRun { base, stride, out } if !out.is_empty() => {
                    let cells = run(*base, *stride, out.len());
                    let seen = &maxima[at..at + out.len()];
                    let counts = &committed[at..at + out.len()];
                    at += out.len();
                    for (i, (value, data)) in out.iter_mut().zip(seen).enumerate() {
                        *value = data.value;
                        let decider = if self.first_cell_write_back { 0 } else { i };
                        if repair && counts[decider] < majority {
                            repair_cell(&mut late, cells.reg(i), *data);
                        }
                    }
                    observed.extend(cells.regs().zip(seen.iter().copied()));
                }
                Access::WriteRun {
                    base,
                    stride,
                    values,
                    kind: WriteKind::Queried,
                } if !values.is_empty() && !self.store_only_writes => {
                    let seen = &maxima[at..at + values.len()];
                    at += values.len();
                    floor = seen.iter().map(|v| v.version.ts).fold(floor, u64::max);
                    let cells = run(*base, *stride, values.len());
                    fresh.extend(cells.regs().zip(values.iter().copied()));
                }
                Access::WriteIfUnset {
                    index,
                    value,
                    between,
                    seen,
                } => {
                    let (data, count) = if self.unqueried_conditional_writes {
                        (Versioned::ZERO, 0)
                    } else {
                        at += 1;
                        (maxima[at - 1], committed[at - 1])
                    };
                    *seen = data.value;
                    if data.version == Version::ZERO {
                        between();
                        fresh.push((*index, *value));
                        continue;
                    }
                    if repair && count < majority {
                        repair_cell(&mut late, *index, data);
                    }
                    observed.push((*index, data));
                }
                _ => {}
            }
        }

        // Phase 2: the write-backs, and the stores that needed a query.
        let fresh_from = late.len();
        if !fresh.is_empty() {
            let version = self.version(floor);
            late.extend(fresh.into_iter().map(|(reg, value)| Stored {
                reg,
                data: Versioned { version, value },
                kind: WriteKind::Queried,
            }));
        }
        if !late.is_empty() || !regroup.is_empty() {
            let _phase = Span::enter(trace, "quorum.phase2");
            self.quorum_round(client, Payload::grouped([], &late[..], regroup));
        }
        drop(op_span);
        let stored = early.iter().chain(&late[fresh_from..]);
        self.finish(group, t0, observed, stored);
        maxima
    }

    /// Closes a served group's trace: the version each cell returns or
    /// now carries — what reads saw first, so that a group that reads and
    /// writes one cell shows no regression — then each access's end. Per
    /// client lane and register the versions must never regress (the
    /// new/old inversion ABD's write-back exists to prevent), which is
    /// exactly what the online monitor checks.
    fn finish<'s>(
        &self,
        group: &[Access<'_>],
        t0: Option<u64>,
        observed: Vec<(u64, Versioned)>,
        stored: impl Iterator<Item = &'s Stored>,
    ) {
        let trace = &self.net.shared().trace;
        let stored = stored.map(|cell| (cell.reg, cell.data));
        for (reg, data) in observed.into_iter().chain(stored) {
            trace.emit_current(EventKind::QuorumVersion {
                reg,
                ts: data.version.ts,
                wid: data.version.wid,
            });
        }
        let (Some(t0), Some(t1)) = (t0, trace.now_ns()) else {
            return;
        };
        for access in group {
            let write = match access {
                Access::ReadRun { .. } => false,
                Access::WriteRun { .. } => true,
                Access::WriteIfUnset { seen, .. } => *seen == 0,
            };
            if let Some(reg) = access.cells().next() {
                trace.emit_current(EventKind::QuorumEnd {
                    reg,
                    write,
                    rtt_ns: t1.saturating_sub(t0),
                });
            }
        }
    }

    /// A fresh version of this handle: its writer id, and a timestamp
    /// strictly above `floor` (the highest one the queries saw, or 0 for
    /// an owned or agreed write) and above every timestamp this handle
    /// previously issued.
    fn version(&self, floor: u64) -> Version {
        let mut cur = self.issued.load(Ordering::SeqCst);
        loop {
            let candidate = cur.max(floor) + 1;
            match self
                .issued
                .compare_exchange(cur, candidate, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    return Version {
                        ts: candidate,
                        wid: self.wid,
                    }
                }
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A read's write-back of `data` to `reg`: a queried store of the version
/// the read returns.
fn write_back(reg: u64, data: Versioned) -> Stored {
    Stored {
        reg,
        data,
        kind: WriteKind::Queried,
    }
}

impl RegisterSpace for QuorumSpace {
    fn read(&self, index: u64) -> u64 {
        self.read_versioned(index).value
    }

    fn write(&self, index: u64, value: u64) {
        self.serve(&mut [Access::write_run(index, 1, &[value], WriteKind::Queried)]);
    }

    /// At most two rounds for the whole group, one message per replica
    /// per phase (see the module docs).
    fn access_all(&self, group: &mut [Access<'_>]) {
        self.serve(group);
    }

    /// Every access is one or two quorum rounds, so `true` — unless the
    /// network is traced: client-side events go to the calling worker's
    /// own lane, which must keep one writer (the lane rule, see
    /// [`crate::net`]), so a traced network keeps each worker's rounds
    /// on its own thread.
    fn round_trips(&self) -> bool {
        !self.net.shared().trace.is_enabled()
    }
}

impl std::fmt::Debug for QuorumSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuorumSpace")
            .field("wid", &self.wid)
            .field("issued", &self.issued.load(Ordering::SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetConfig;

    fn small_net() -> Arc<Network> {
        Arc::new(Network::new(NetConfig::new(2, 3, 0xABD)))
    }

    #[test]
    fn reads_see_the_latest_write() {
        let net = small_net();
        let space = net.space();
        assert_eq!(space.read(0), 0);
        space.write(0, 41);
        space.write(0, 42);
        assert_eq!(space.read(0), 42);
        assert_eq!(space.read(1), 0, "registers are independent");
    }

    #[test]
    fn handles_get_unique_writer_ids_and_versions_advance() {
        let net = small_net();
        let a = net.space();
        let b = net.space();
        assert_ne!(a.writer_id(), b.writer_id());
        a.write(5, 1);
        let va = a.read_versioned(5);
        b.write(5, 2);
        let vb = b.read_versioned(5);
        assert!(vb.version > va.version, "later write wins the order");
        assert_eq!(vb.value, 2);
    }

    #[test]
    fn concurrent_writers_from_threads_converge() {
        let net = small_net();
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let net = &net;
                s.spawn(move || {
                    let space = net.space();
                    for i in 0..5 {
                        space.write(9, t * 100 + i);
                    }
                });
            }
        });
        let space = net.space();
        let last = space.read(9);
        assert!(last < 5 || (100..105).contains(&last));
        // And a second read agrees — the winner is committed.
        assert_eq!(space.read(9), last);
    }
}
