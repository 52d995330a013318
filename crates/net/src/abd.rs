//! The client side of the quorum protocol: [`QuorumSpace`], a
//! [`RegisterSpace`] whose every cell is an ABD multi-writer
//! multi-reader atomic register replicated across the cluster.
//!
//! All three operations are built from the same primitive — a *quorum round*
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
//! Every operation is on a **run** of cells `base + i·stride`
//! ([`RegisterSpace::read_run`] / [`RegisterSpace::write_run`] /
//! [`RegisterSpace::write_run_owned`]), and a run costs the rounds of one
//! register: one message per replica per phase. A single-cell `read` /
//! `write` / `write_agreed` is a run of one — there is one code path per
//! operation.
//!
//! * **write run** — round 1 queries a majority for every cell's highest
//!   version; the writer picks *one* fresh timestamp above everything it
//!   saw in any cell (and above everything it ever issued, via a CAS
//!   floor), stamps every cell with it and its unique `wid`, and round 2
//!   stores the cells on a majority.
//! * **owned write run** ([`RegisterSpace::write_run_owned`]) — the store
//!   round alone, stamped `reserve_ts(0)`: one past the handle's CAS
//!   floor. The caller promises that every write those cells ever receive
//!   comes through this one handle, and that is what makes the query
//!   redundant. The query exists to lift a write above *other* writers'
//!   versions; an owned cell has none, and every version it ever carried
//!   — on any replica, including a store a crashed caller left stranded on
//!   a minority — was issued by this handle, so it lies at or below the
//!   floor. The new version therefore beats all of them everywhere, which
//!   is all round 1 would have established. The promise is the caller's
//!   (classic single-writer ABD's regime, one round trip per write); in
//!   debug builds the replicas check it, pinning an owned cell to the
//!   `wid` of its first owned store and panicking on any store that
//!   carries another.
//! * **agreed write** ([`RegisterSpace::write_agreed`]) — the store round
//!   alone too, stamped `reserve_ts(0)`, from any handle. The caller
//!   promises that every write the cell ever receives carries this one
//!   value. Round 1 exists to order a write after other writers' values;
//!   an agreed cell has no other value, so *any* version above
//!   [`Version::ZERO`] is correct, and versions from different handles
//!   may land in any order. A reader's query returns 0 (no write yet on
//!   the majority it asked) or the value, and its write-back is
//!   unchanged. In debug builds a replica panics on an agreed store whose
//!   value differs from the nonzero value it holds.
//! * **read run** — round 1 queries a majority and takes each cell's
//!   maximum `(ts, wid)` answer; round 2 writes *back* to a majority the
//!   cells whose maximum some majority member might miss — decided per
//!   cell, so a cell every ack already carries at its maximum (committed
//!   on a majority) is left out, and the round is skipped when no cell
//!   needs it. The write-back is what stops a later read from seeing an
//!   older value (the new/old inversion ABD exists to prevent).
//!
//! Each cell keeps its own version and its own linearization point inside
//! the operation, exactly as if it had been accessed alone; sharing
//! messages and a timestamp across cells promises nothing *across*
//! cells, and nothing more is claimed (per-register atomicity composes —
//! linearizability is local).
//!
//! Liveness needs a connected majority: under a partition that strands
//! clients with a minority, rounds retransmit forever — operations
//! *stall but never regress* — and complete after
//! [`crate::NetControl::heal`]. Safety never depends on timing, which is
//! this backend's whole point in a workspace about timing failures: the
//! Δ-tuned algorithms keep their *own* guarantees even when "shared
//! memory" is a lossy network.

use crate::msg::{Message, NodeId, Payload, Run, StoreKind, Version, Versioned};
use crate::net::{wait_until, Network};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tfr_registers::space::RegisterSpace;
use tfr_registers::ProcId;
use tfr_telemetry::{current_pid, current_span_id, EventKind, Span};

/// A replicated register array: the `tfr-net` implementation of
/// [`RegisterSpace`]. Obtain one with [`Network::space`]; every handle
/// carries its own unique writer id.
///
/// Handles are cheap (an [`Arc`], the writer id, the timestamp floor and
/// two mutant flags) and `Send + Sync`; a single handle shared by several
/// threads is safe but serializes nothing — each operation is its own
/// quorum round. Agreed writes may come through any handle. Cells written
/// with owned writes must be written through
/// one handle for the life of the data, so an object that owns cells
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
    /// would, the store round alone stamped one past its own floor, but
    /// its stores stay queried, so the debug replica check of agreed
    /// stores does not see them. Two handles writing different values to
    /// one cell then order by their private floors, not by real time: the
    /// later write can carry the lower version and vanish.
    #[doc(hidden)]
    pub fn with_store_only_writes(mut self) -> QuorumSpace {
        self.store_only_writes = true;
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

    /// Reads the run `base + i·stride` into `out` with versions: one
    /// query round, then one write-back round carrying only the cells a
    /// majority did not already hold at their maximum (skipped when there
    /// are none).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0 and `out` has more than one cell.
    pub fn read_run_versioned(&self, base: u64, stride: u64, out: &mut [Versioned]) {
        if out.is_empty() {
            return;
        }
        let run = Run::new(base, stride, out.len());
        let shared = self.net.shared();
        let t0 = shared.trace.now_ns();
        shared.trace.emit_current(EventKind::QuorumStart {
            reg: base,
            write: false,
        });
        let op_span = Span::enter(&shared.trace, "quorum.read");
        let client = self.client();
        let acks = {
            let _phase = Span::enter(&shared.trace, "quorum.phase1");
            self.quorum_round(client, Payload::ReadReq { run })
        };
        // Per cell: the maximum version, and how many acks carry it.
        out.fill(Versioned::ZERO);
        let mut committed = vec![0usize; out.len()];
        for (_, ack) in &acks {
            if let Payload::ReadAck { data, .. } = ack {
                for ((max, count), seen) in out.iter_mut().zip(&mut committed).zip(data) {
                    match seen.version.cmp(&max.version) {
                        std::cmp::Ordering::Greater => {
                            *max = *seen;
                            *count = 1;
                        }
                        std::cmp::Ordering::Equal => *count += 1,
                        std::cmp::Ordering::Less => {}
                    }
                }
            }
        }
        // Write-back phase, for the cells some majority member might
        // miss. A cell every ack already carries at its maximum is stored
        // on a majority and needs no round trip; if no cell needs one, the
        // phase is skipped.
        let majority = shared.cfg.majority();
        let behind = |i: usize| {
            let decider = if self.first_cell_write_back { 0 } else { i };
            committed[decider] < majority
        };
        let cells: Arc<[(u64, Versioned)]> = (0..out.len())
            .filter(|&i| behind(i))
            .map(|i| (run.reg(i), out[i]))
            .collect();
        if !cells.is_empty() {
            let _phase = Span::enter(&shared.trace, "quorum.phase2");
            let write_back = Payload::WriteReq {
                cells,
                kind: StoreKind::Queried,
            };
            self.quorum_round(client, write_back);
        }
        drop(op_span);
        // The version each cell returns — per client lane and register
        // these must never regress (the new/old inversion ABD's
        // write-back exists to prevent), which is exactly what the online
        // monitor checks.
        self.emit_versions(run.regs().zip(out.iter().copied()));
        if let (Some(t0), Some(t1)) = (t0, shared.trace.now_ns()) {
            shared.trace.emit_current(EventKind::QuorumEnd {
                reg: base,
                write: false,
                rtt_ns: t1.saturating_sub(t0),
            });
        }
    }

    /// Emits one `QuorumVersion` per cell of a completed run.
    fn emit_versions(&self, cells: impl Iterator<Item = (u64, Versioned)>) {
        let trace = &self.net.shared().trace;
        for (reg, data) in cells {
            trace.emit_current(EventKind::QuorumVersion {
                reg,
                ts: data.version.ts,
                wid: data.version.wid,
            });
        }
    }

    /// Reserves a fresh timestamp: strictly above `floor` (the highest
    /// version a query phase observed, or 0 for an owned or agreed write)
    /// and above every timestamp this handle previously issued.
    fn reserve_ts(&self, floor: u64) -> u64 {
        let mut cur = self.issued.load(Ordering::SeqCst);
        loop {
            let candidate = cur.max(floor) + 1;
            match self
                .issued
                .compare_exchange(cur, candidate, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return candidate,
                Err(seen) => cur = seen,
            }
        }
    }
}

impl RegisterSpace for QuorumSpace {
    fn read(&self, index: u64) -> u64 {
        self.read_versioned(index).value
    }

    fn write(&self, index: u64, value: u64) {
        self.write_run(index, 1, &[value])
    }

    /// One query round and at most one write-back round for the whole
    /// run (see [`QuorumSpace::read_run_versioned`]).
    fn read_run(&self, base: u64, stride: u64, out: &mut [u64]) {
        let mut versioned = vec![Versioned::ZERO; out.len()];
        self.read_run_versioned(base, stride, &mut versioned);
        for (value, data) in out.iter_mut().zip(&versioned) {
            *value = data.value;
        }
    }

    /// One query round and one store round for the whole run, every cell
    /// stamped with one fresh version.
    fn write_run(&self, base: u64, stride: u64, values: &[u64]) {
        self.store_run(base, stride, values, StoreKind::Queried)
    }

    /// One store round for the whole run, every cell stamped one past the
    /// handle's timestamp floor (see the module docs for why that is
    /// enough when the cells are owned).
    fn write_run_owned(&self, base: u64, stride: u64, values: &[u64]) {
        self.store_run(base, stride, values, StoreKind::Owned)
    }

    /// One store round, stamped one past the handle's timestamp floor
    /// (see the module docs for why any version will do when every write
    /// to the cell carries `value`).
    fn write_agreed(&self, index: u64, value: u64) {
        self.store_run(index, 1, &[value], StoreKind::Agreed)
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

impl QuorumSpace {
    /// A write run: the query round for a queried write, then the store
    /// round.
    fn store_run(&self, base: u64, stride: u64, values: &[u64], kind: StoreKind) {
        if values.is_empty() {
            return;
        }
        let run = Run::new(base, stride, values.len());
        let shared = self.net.shared();
        let t0 = shared.trace.now_ns();
        shared.trace.emit_current(EventKind::QuorumStart {
            reg: base,
            write: true,
        });
        let op_span = Span::enter(&shared.trace, "quorum.write");
        let client = self.client();
        // Phase 1, queried writes only: learn the highest timestamp a
        // majority has seen in any cell of the run. An owned cell's
        // versions are all this handle's, so its floor already covers
        // them; an agreed cell's versions all carry this value, so any
        // version will do.
        let mut max_ts = 0;
        if kind == StoreKind::Queried && !self.store_only_writes {
            let acks = {
                let _phase = Span::enter(&shared.trace, "quorum.phase1");
                self.quorum_round(client, Payload::ReadReq { run })
            };
            for (_, ack) in &acks {
                if let Payload::ReadAck { data, .. } = ack {
                    for seen in data {
                        max_ts = max_ts.max(seen.version.ts);
                    }
                }
            }
        }
        // Phase 2: commit every cell under one fresh unique version —
        // above each cell's own maximum, since it is above all of them.
        let version = Version {
            ts: self.reserve_ts(max_ts),
            wid: self.wid,
        };
        let cells: Arc<[(u64, Versioned)]> = run
            .regs()
            .zip(values)
            .map(|(reg, &value)| (reg, Versioned { version, value }))
            .collect();
        {
            let _phase = Span::enter(&shared.trace, "quorum.phase2");
            let cells = Arc::clone(&cells);
            self.quorum_round(client, Payload::WriteReq { cells, kind });
        }
        drop(op_span);
        self.emit_versions(cells.iter().copied());
        if let (Some(t0), Some(t1)) = (t0, shared.trace.now_ns()) {
            shared.trace.emit_current(EventKind::QuorumEnd {
                reg: base,
                write: true,
                rtt_ns: t1.saturating_sub(t0),
            });
        }
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
