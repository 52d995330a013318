//! The client side of the quorum protocol: [`QuorumSpace`], a
//! [`RegisterSpace`] whose every cell is an ABD multi-writer
//! multi-reader atomic register replicated across the cluster.
//!
//! Both operations are built from the same primitive — a *quorum round*
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
//! * **write(v)** — round 1 queries a majority for the highest version;
//!   the writer picks a fresh timestamp above everything it saw (and
//!   above everything it ever issued, via a CAS floor), stamps it with
//!   its unique `wid`, and round 2 stores `(ts, wid, v)` on a majority.
//! * **read()** — round 1 queries a majority and takes the maximum
//!   `(ts, wid)` answer; round 2 writes that answer *back* to a majority
//!   before returning it, so a later read can never see an older value
//!   (the new/old inversion ABD exists to prevent). The write-back is
//!   skipped when every collected ack already carries the maximum
//!   version — it is then already committed on a majority.
//!
//! Liveness needs a connected majority: under a partition that strands
//! clients with a minority, rounds retransmit forever — operations
//! *stall but never regress* — and complete after
//! [`crate::NetControl::heal`]. Safety never depends on timing, which is
//! this backend's whole point in a workspace about timing failures: the
//! Δ-tuned algorithms keep their *own* guarantees even when "shared
//! memory" is a lossy network.

use crate::msg::{Message, NodeId, Payload, Version, Versioned};
use crate::net::{wait_until, Network};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tfr_registers::space::RegisterSpace;
use tfr_registers::ProcId;
use tfr_telemetry::{current_pid, current_span_id, EventKind, Span};

/// A replicated register array: the `tfr-net` implementation of
/// [`RegisterSpace`]. Obtain one with [`Network::space`]; every handle
/// carries its own unique writer id, so clone-by-`space()` per thread.
///
/// Handles are cheap (an [`Arc`] plus two words) and `Send + Sync`; a
/// single handle shared by several threads is safe but serializes nothing
/// — each operation is its own quorum round.
pub struct QuorumSpace {
    net: Arc<Network>,
    /// This handle's unique writer id (tie-breaker of equal timestamps).
    wid: u64,
    /// Highest timestamp this handle has issued — a CAS floor that keeps
    /// its timestamps strictly increasing even across concurrent writes
    /// through the same handle.
    issued: AtomicU64,
}

impl QuorumSpace {
    pub(crate) fn new(net: Arc<Network>) -> QuorumSpace {
        let wid = net.shared().next_wid.fetch_add(1, Ordering::SeqCst) + 1;
        QuorumSpace {
            net,
            wid,
            issued: AtomicU64::new(0),
        }
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
                    payload,
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
        let shared = self.net.shared();
        let t0 = shared.trace.now_ns();
        shared.trace.emit_current(EventKind::QuorumStart {
            reg: index,
            write: false,
        });
        let op_span = Span::enter(&shared.trace, "quorum.read");
        let client = self.client();
        let acks = {
            let _phase = Span::enter(&shared.trace, "quorum.phase1");
            self.quorum_round(client, Payload::ReadReq { reg: index })
        };
        let mut max = Versioned::ZERO;
        let mut committed = 0usize;
        for (_, ack) in &acks {
            if let Payload::ReadAck { data, .. } = ack {
                match data.version.cmp(&max.version) {
                    std::cmp::Ordering::Greater => {
                        max = *data;
                        committed = 1;
                    }
                    std::cmp::Ordering::Equal => committed += 1,
                    std::cmp::Ordering::Less => {}
                }
            }
        }
        // Write-back phase: needed only when some majority member might
        // miss the maximum. If every ack already carries it, a majority
        // provably stores it and the round trip can be skipped.
        if committed < shared.cfg.majority() {
            let _phase = Span::enter(&shared.trace, "quorum.phase2");
            self.quorum_round(
                client,
                Payload::WriteReq {
                    reg: index,
                    data: max,
                },
            );
        }
        drop(op_span);
        // The version this read returns — per client lane these must
        // never regress (the new/old inversion ABD's write-back exists to
        // prevent), which is exactly what the online monitor checks.
        shared.trace.emit_current(EventKind::QuorumVersion {
            reg: index,
            ts: max.version.ts,
            wid: max.version.wid,
        });
        if let (Some(t0), Some(t1)) = (t0, shared.trace.now_ns()) {
            shared.trace.emit_current(EventKind::QuorumEnd {
                reg: index,
                write: false,
                rtt_ns: t1.saturating_sub(t0),
            });
        }
        max
    }

    /// Reserves a fresh timestamp: strictly above `floor` (the highest
    /// version a query phase observed) and above every timestamp this
    /// handle previously issued.
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
        let shared = self.net.shared();
        let t0 = shared.trace.now_ns();
        shared.trace.emit_current(EventKind::QuorumStart {
            reg: index,
            write: true,
        });
        let op_span = Span::enter(&shared.trace, "quorum.write");
        let client = self.client();
        // Phase 1: learn the highest timestamp a majority has seen.
        let acks = {
            let _phase = Span::enter(&shared.trace, "quorum.phase1");
            self.quorum_round(client, Payload::ReadReq { reg: index })
        };
        let mut max_ts = 0;
        for (_, ack) in &acks {
            if let Payload::ReadAck { data, .. } = ack {
                max_ts = max_ts.max(data.version.ts);
            }
        }
        // Phase 2: commit the value under a fresh unique version.
        let data = Versioned {
            version: Version {
                ts: self.reserve_ts(max_ts),
                wid: self.wid,
            },
            value,
        };
        {
            let _phase = Span::enter(&shared.trace, "quorum.phase2");
            self.quorum_round(client, Payload::WriteReq { reg: index, data });
        }
        drop(op_span);
        shared.trace.emit_current(EventKind::QuorumVersion {
            reg: index,
            ts: data.version.ts,
            wid: data.version.wid,
        });
        if let (Some(t0), Some(t1)) = (t0, shared.trace.now_ns()) {
            shared.trace.emit_current(EventKind::QuorumEnd {
                reg: index,
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
