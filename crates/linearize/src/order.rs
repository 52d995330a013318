//! Per-writer order across cells: the one property of a register history
//! that per-register linearizability does not cover.
//!
//! Linearizability is local, so the Wing–Gong check of a register
//! history ([`RegisterModel`](crate::register::RegisterModel)) judges
//! every cell on its own. A writer that sends several cells at once — a
//! group of [`RegisterSpace::access_all`](tfr_registers::space::RegisterSpace::access_all),
//! whose accesses are mutually concurrent — is promised nothing across
//! them by that check: if the writer crashes with its payload and its
//! counter stored on one replica, a read may return the counter and a
//! later read miss the payload, and both cells still linearize (the
//! pending writes take effect, or never do, cell by cell). A reader that
//! trusts the counter to vouch for the payload then reads a payload that
//! is not there.
//!
//! [`check_writer_order`] checks the order a writer's program gives its
//! cells: **a read that returns a writer's later write, followed by a
//! read of a cell the writer wrote earlier, must return that earlier
//! write or a later one.** "Later" and "earlier" are the writer's
//! program order: the order of its invocations, which a
//! [`RecordingSpace`](crate::register::RecordingSpace) records in a
//! group's slice order. "Followed by" is real time: the second read is
//! invoked after the first responded, by any process. The check covers
//! the cells with exactly one writer in the history (the owned cells of
//! a quorum handle are such cells); a cell several processes write has
//! no one program order, and is left to the per-register check. A write
//! still pending, its writer crashed or cut off, is in the writer's
//! order as much as a completed one: that is the case the property
//! exists for.
//!
//! Values are matched to writes by equality, so each cell's values
//! should be distinct. Where a value repeats, the first read is taken to
//! see its earliest write and the second its latest, so a repeat never
//! makes a violation, it can only hide one.

use crate::history::{History, Operation};
use crate::register::READ_OP;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use tfr_registers::ProcId;

/// What [`check_writer_order`] checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderReport {
    /// The single-writer cells.
    pub cells: usize,
    /// The `(read of a later write, cell written earlier)` pairs checked.
    pub pairs: usize,
}

/// A read that missed a writer's earlier write after a read had seen a
/// later one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderViolation {
    /// The writer.
    pub writer: ProcId,
    /// The writer's later write.
    pub later: Operation,
    /// The read that returned it.
    pub saw: Operation,
    /// The writer's earlier write, to another cell.
    pub earlier: Operation,
    /// The read of that cell, invoked after `saw` responded, that
    /// returned an older value.
    pub missed: Operation,
}

impl fmt::Display for OrderViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let value = |op: &Operation| op.op >> 1;
        let got = self.missed.resp.unwrap_or_default();
        write!(
            f,
            "per-writer order violated: p{} wrote cell {} := {} before cell {} := {}; \
             p{} read cell {} → {} (ts {}..{}), then p{} read cell {} → {} (ts {}..{})",
            self.writer.0,
            self.earlier.obj,
            value(&self.earlier),
            self.later.obj,
            value(&self.later),
            self.saw.pid.0,
            self.saw.obj,
            value(&self.later),
            self.saw.invoke_ts,
            self.saw.resp_ts,
            self.missed.pid.0,
            self.missed.obj,
            got,
            self.missed.invoke_ts,
            self.missed.resp_ts,
        )
    }
}

impl std::error::Error for OrderViolation {}

/// One single-writer cell: its writer's writes to it, as positions in the
/// writer's order, and its completed reads by invocation, each with the
/// position of the write it returned.
struct Cell {
    writer: ProcId,
    /// `(position, write)`, ascending.
    writes: Vec<(usize, Operation)>,
    /// Completed reads, by `invoke_ts`.
    reads: Vec<Operation>,
    /// `seen[i]`: the latest position of a write of `reads[i]`'s value;
    /// −1 for the initial 0, and `i64::MAX` for a value the writer never
    /// wrote (the per-register check's to reject).
    seen: Vec<i64>,
    /// `lowest[i]`: the index `j ≥ i` whose `seen[j]` is least.
    lowest: Vec<usize>,
}

/// Checks per-writer order across cells (see the module docs) over every
/// cell `history` shows exactly one process writing.
///
/// # Errors
///
/// The first violation found: the two writes, the read that saw the
/// later and the read that then missed the earlier.
pub fn check_writer_order(history: &History) -> Result<OrderReport, Box<OrderViolation>> {
    let is_write = |op: &Operation| op.op & 1 == 1;
    let mut writers: BTreeMap<u64, Option<ProcId>> = BTreeMap::new();
    for op in history.ops.iter().filter(|op| is_write(op)) {
        let entry = writers.entry(op.obj).or_insert(Some(op.pid));
        if *entry != Some(op.pid) {
            *entry = None;
        }
    }
    // Every writer's program order over its single-writer cells: the
    // history is sorted by invocation, and each writer invokes in order.
    let mut cells: BTreeMap<u64, Cell> = BTreeMap::new();
    let mut positions: HashMap<ProcId, usize> = HashMap::new();
    for op in &history.ops {
        let Some(&Some(writer)) = writers.get(&op.obj) else {
            continue;
        };
        let cell = cells.entry(op.obj).or_insert_with(|| Cell {
            writer,
            writes: Vec::new(),
            reads: Vec::new(),
            seen: Vec::new(),
            lowest: Vec::new(),
        });
        if is_write(op) {
            let next = positions.entry(writer).or_default();
            cell.writes.push((*next, *op));
            *next += 1;
        } else if op.op == READ_OP && op.is_complete() {
            cell.reads.push(*op);
        }
    }
    for cell in cells.values_mut() {
        cell.seen = (cell.reads.iter())
            .map(|read| {
                let value = read.resp.expect("completed");
                let wrote = cell.writes.iter().rev().find(|(_, w)| w.op >> 1 == value);
                match wrote {
                    Some(&(pos, _)) => pos as i64,
                    None if value == 0 => -1,
                    None => i64::MAX,
                }
            })
            .collect();
        cell.lowest = vec![0; cell.reads.len()];
        for i in (0..cell.reads.len()).rev() {
            let after = cell.lowest.get(i + 1).copied();
            cell.lowest[i] = match after {
                Some(j) if cell.seen[j] < cell.seen[i] => j,
                _ => i,
            };
        }
    }
    let mut pairs = 0;
    for (&obj, cell) in &cells {
        for saw in &cell.reads {
            let value = saw.resp.expect("completed");
            // The earliest write of the value the read returned.
            let Some(&(later_pos, later)) = cell.writes.iter().find(|(_, w)| w.op >> 1 == value)
            else {
                continue;
            };
            for (&other, earlier_cell) in &cells {
                if other == obj || earlier_cell.writer != cell.writer {
                    continue;
                }
                let Some(&(need, earlier)) = (earlier_cell.writes.iter())
                    .rev()
                    .find(|(pos, _)| *pos < later_pos)
                else {
                    continue;
                };
                let from = (earlier_cell.reads).partition_point(|r| r.invoke_ts <= saw.resp_ts);
                if from == earlier_cell.reads.len() {
                    continue;
                }
                pairs += 1;
                let worst = earlier_cell.lowest[from];
                if earlier_cell.seen[worst] < need as i64 {
                    return Err(Box::new(OrderViolation {
                        writer: cell.writer,
                        later,
                        saw: *saw,
                        earlier,
                        missed: earlier_cell.reads[worst],
                    }));
                }
            }
        }
    }
    Ok(OrderReport {
        cells: cells.len(),
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_history;
    use crate::history::Recorder;
    use crate::register::{write_op, RecordingSpace, RegisterModel};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use tfr_net::{NetConfig, Network, NodeId, QuorumSpace};
    use tfr_registers::space::{Access, RegisterSpace, RegisterSpaceExt, WriteKind};
    use tfr_telemetry::with_pid;

    /// An operation of `pid` on `obj` over `[invoke, resp]`, pending if
    /// `resp` is `None`.
    fn op(pid: usize, obj: u64, code: u64, resp: Option<u64>, span: (u64, u64)) -> Operation {
        Operation {
            pid: ProcId(pid),
            obj,
            op: code,
            resp,
            invoke_ts: span.0,
            resp_ts: if resp.is_some() { span.1 } else { u64::MAX },
        }
    }

    /// Writer 0's group, payload (cell 10) then counter (cell 11), still
    /// pending, and two reads by process 1: the counter, then the payload.
    fn stranded(payload_read: u64, second_invoked: u64) -> History {
        History::from_ops(vec![
            op(0, 10, write_op(7), None, (1, 0)),
            op(0, 11, write_op(1), None, (2, 0)),
            op(1, 11, READ_OP, Some(1), (3, 4)),
            op(1, 10, READ_OP, Some(payload_read), (second_invoked, 9)),
        ])
    }

    #[test]
    fn a_read_that_misses_an_earlier_cell_is_a_violation() {
        let err = check_writer_order(&stranded(0, 5)).expect_err("the payload was missed");
        assert_eq!(
            (err.writer, err.saw.obj, err.missed.obj),
            (ProcId(0), 11, 10)
        );
        let msg = err.to_string();
        assert!(msg.contains("per-writer order violated"), "{msg}");
        assert!(msg.contains("cell 10 → 0"), "{msg}");
    }

    #[test]
    fn seeing_the_earlier_cell_or_overlapping_the_first_read_is_no_violation() {
        let report = check_writer_order(&stranded(7, 5)).expect("the payload was seen");
        assert_eq!(report, OrderReport { cells: 2, pairs: 1 });
        // Invoked before the counter read responded: concurrent, no order.
        let report = check_writer_order(&stranded(0, 3)).expect("concurrent reads");
        assert_eq!(report.pairs, 0);
    }

    /// A later value of the earlier cell satisfies the order, and a cell
    /// two processes write is not checked.
    #[test]
    fn later_values_pass_and_shared_cells_are_skipped() {
        let mut ops = stranded(0, 5).ops;
        ops.push(op(0, 10, write_op(8), Some(0), (6, 7)));
        ops[3].resp = Some(8);
        check_writer_order(&History::from_ops(ops.clone())).expect("a later payload");
        ops[3].resp = Some(0);
        ops.push(op(2, 10, write_op(9), Some(0), (20, 21)));
        let report = check_writer_order(&History::from_ops(ops)).expect("shared cell");
        assert_eq!(report.cells, 1, "only the counter has one writer");
    }

    /// The hazard a quorum space's ordered groups close, scripted with
    /// partitions over three replicas s0–s2 and two clients:
    ///
    /// 1. the writer, process 0, cut off with s0 alone, sends one group:
    ///    its payload run, cells 10 and 11, and then its counter, cell 12,
    ///    as owned writes; the request reaches s0 only, and the group
    ///    stays pending;
    /// 2. a read of the counter and the mark (cells 12 and 13, the run a
    ///    session opens with) from s0 and s1 sees the counter;
    /// 3. process 1 reads the payload run from s1 and s2.
    ///
    /// With `recovered`, step 2's reader is a recovered incarnation of
    /// the writer: the same handle and process on another thread, opening
    /// while its predecessor's request is stranded. The writer's handle is
    /// made by `handle` then, and its retransmit timer is long, so that
    /// the predecessor stays silent while the incarnation's rounds reach
    /// s0 and s1. Otherwise process 1 reads the counter too, through the
    /// handle `handle` makes. Returns the history, or `None` if the
    /// schedule missed its precondition: step 2 did not see the counter,
    /// or, with `recovered`, the script outlasted half the timer.
    pub(crate) fn stranded_group_script(
        handle: fn(QuorumSpace) -> QuorumSpace,
        recovered: bool,
    ) -> Option<History> {
        use NodeId::{Client, Replica};
        let mut cfg = NetConfig::new(2, 3, 0x0D6 + recovered as u64);
        if recovered {
            cfg.retransmit = Duration::from_millis(500);
        }
        let net = Arc::new(Network::new(cfg.clone()));
        let control = net.control();
        let rec = Arc::new(Recorder::new(2));
        let (mine, theirs) = match recovered {
            true => (handle(net.space()), net.space()),
            false => (net.space(), handle(net.space())),
        };
        let writer = RecordingSpace::new(mine, Arc::clone(&rec));
        let reader = RecordingSpace::new(theirs, Arc::clone(&rec));
        let cut = |side: [NodeId; 3], alone: [NodeId; 2]| {
            control.partition(&[side.to_vec(), vec![alone[0]], vec![alone[1]]]);
        };
        control.partition(&[
            vec![Client(0), Replica(0)],
            vec![Client(1), Replica(1), Replica(2)],
        ]);
        let (mut open, mut payload) = ([0; 2], [0; 2]);
        let started = Instant::now();
        let took = std::thread::scope(|s| {
            let sent = control.requests_sent();
            s.spawn(|| {
                with_pid(ProcId(0), || {
                    writer.access_all(&mut [
                        Access::write_run(10, 1, &[7, 8], WriteKind::Owned),
                        Access::write_run(12, 1, &[1], WriteKind::Owned),
                    ])
                })
            });
            // The requests are sent once the group's invocations are
            // recorded, so the recorder's lane of process 0 is handed on.
            while control.requests_sent() == sent {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            if recovered {
                cut([Client(0), Replica(0), Replica(1)], [Client(1), Replica(2)]);
                with_pid(ProcId(0), || writer.read_run(12, 1, &mut open));
            } else {
                cut([Client(1), Replica(0), Replica(1)], [Client(0), Replica(2)]);
                with_pid(ProcId(1), || reader.read_run(12, 1, &mut open));
            }
            cut([Client(1), Replica(1), Replica(2)], [Client(0), Replica(0)]);
            with_pid(ProcId(1), || reader.read_run(10, 1, &mut payload));
            let took = started.elapsed();
            control.heal(); // the writer completes, and is joined
            took
        });
        let in_time = !recovered || took < cfg.retransmit / 2;
        (open[0] == 1 && in_time).then(|| rec.history())
    }

    /// Runs [`stranded_group_script`] with correct handles, whose history
    /// must keep per-writer order, and with the seeded
    /// unrepaired-ordered-group mutant, whose history must not. Both
    /// linearize per register: the new property is what sees the mutant.
    pub(crate) fn assert_stranded_group_mutant_rejected(recovered: bool) {
        for attempt in 0..5 {
            let correct = stranded_group_script(|space| space, recovered);
            let mutant =
                stranded_group_script(QuorumSpace::with_unrepaired_ordered_groups, recovered);
            let (Some(correct), Some(mutant)) = (correct, mutant) else {
                eprintln!("attempt {attempt}: the schedule missed its precondition, retrying");
                continue;
            };
            let report = check_writer_order(&correct).expect("the correct handle keeps the order");
            assert!(report.pairs > 0, "the payload read was checked");
            for history in [&correct, &mutant] {
                check_history(history, &RegisterModel).expect("every cell linearizes");
            }
            let err = check_writer_order(&mutant).expect_err("the mutant must be rejected");
            assert_eq!(
                (err.writer, err.saw.obj, err.missed.obj),
                (ProcId(0), 12, 10)
            );
            return;
        }
        panic!("the scripted schedule never met its precondition");
    }

    #[test]
    fn the_unrepaired_ordered_group_mutant_is_rejected() {
        assert_stranded_group_mutant_rejected(false);
    }

    #[test]
    fn the_mutant_is_rejected_when_a_recovered_incarnation_reads() {
        assert_stranded_group_mutant_rejected(true);
    }
}
