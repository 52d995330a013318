//! Lock-free concurrent history recording.
//!
//! A [`Recorder`] captures invoke/response events from many threads at
//! once with per-process single-writer buffers and one global atomic
//! clock, then merges everything into a [`History`] at quiescence.
//!
//! # Why this is sound
//!
//! Timestamps come from a single `AtomicU64` incremented with
//! sequentially-consistent `fetch_add`, so they totally order all events
//! and *respect real time*: if operation A's response event is recorded
//! before operation B's invoke event starts (on any threads), A's
//! timestamp is smaller. That is exactly the precedence relation
//! linearizability is defined over — the checker never sees an ordering
//! constraint that did not hold in the actual execution.
//!
//! Each process writes only its own buffer (the single-writer contract of
//! [`Recorder::invoke`]/[`Recorder::response`]), so recording needs no
//! locks: a slot write followed by a release-store of the length. The
//! merge at quiescence acquire-loads each length, which synchronizes with
//! every recorded slot.
//!
//! A thread that dies mid-operation (a chaos crash fault) leaves an
//! invoke without a response: the merged history marks the operation
//! *pending*, and the checker is free to linearize it anywhere after its
//! invoke — or never.

use crate::lane::{Lane, RawEvent};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use tfr_registers::ProcId;

/// Default per-process event capacity (two events per operation).
pub const DEFAULT_EVENTS_PER_PROCESS: usize = 4096;

/// A lock-free invoke/response event recorder for `n` processes.
pub struct Recorder {
    clock: AtomicU64,
    bufs: Vec<Lane>,
    dropped: AtomicU64,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("processes", &self.bufs.len())
            .field("clock", &self.clock.load(Ordering::SeqCst))
            .field("dropped", &self.dropped.load(Ordering::SeqCst))
            .finish()
    }
}

impl Recorder {
    /// A recorder for `n` processes with the default per-process buffer.
    pub fn new(n: usize) -> Recorder {
        Recorder::with_capacity(n, DEFAULT_EVENTS_PER_PROCESS)
    }

    /// A recorder for `n` processes holding up to `events_per_process`
    /// events (two per operation) for each.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_capacity(n: usize, events_per_process: usize) -> Recorder {
        assert!(n > 0, "at least one process is required");
        Recorder {
            clock: AtomicU64::new(1),
            bufs: (0..n).map(|_| Lane::new(events_per_process)).collect(),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, pid: ProcId, ev: RawEvent) {
        if !self.bufs[pid.0].push(ev) {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Records an invocation of `op` on object `obj` by `pid`; returns
    /// the token to pass to [`Recorder::response`]. Must be called on the
    /// thread acting as `pid` (single-writer contract).
    pub fn invoke(&self, pid: ProcId, obj: u64, op: u64) -> u64 {
        self.invoke_at(pid, obj, op, self.stamp())
    }

    /// Takes a timestamp from the clock without recording anything: the
    /// start of an operation that may or may not turn out to exist, to be
    /// recorded with [`Recorder::invoke_at`] once it does.
    pub fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// [`Recorder::invoke`] dated `ts`, a [`Recorder::stamp`] taken before
    /// the operation began: its interval opens there. Dating an
    /// invocation earlier than it is recorded only widens its interval,
    /// so the checker still sees no precedence that did not hold.
    pub fn invoke_at(&self, pid: ProcId, obj: u64, op: u64, ts: u64) -> u64 {
        self.push(pid, RawEvent::invoke(ts, obj, op));
        ts
    }

    /// Records the response of the invocation identified by `token`.
    /// Must be called on the thread acting as `pid`.
    pub fn response(&self, pid: ProcId, obj: u64, token: u64, resp: u64) {
        let ts = self.clock.fetch_add(1, Ordering::SeqCst);
        self.push(pid, RawEvent::response(ts, obj, token, resp));
    }

    /// Number of events silently dropped because a per-process buffer
    /// filled up. A non-zero value means [`Recorder::history`] is
    /// incomplete — size buffers so this stays 0.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Merges all per-process buffers into a [`History`].
    ///
    /// Call only at quiescence: every recording thread has finished (or
    /// died). Invokes without a matching response become *pending*
    /// operations.
    pub fn history(&self) -> History {
        let mut ops = Vec::new();
        for (pid, buf) in self.bufs.iter().enumerate() {
            buf.pair_into(ProcId(pid), &mut ops);
        }
        ops.sort_by_key(|o| o.invoke_ts);
        History { ops }
    }
}

/// One recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// The invoking process.
    pub pid: ProcId,
    /// The object the operation was applied to.
    pub obj: u64,
    /// The encoded operation.
    pub op: u64,
    /// The encoded response, or `None` for a pending operation.
    pub resp: Option<u64>,
    /// Timestamp of the invoke event.
    pub invoke_ts: u64,
    /// Timestamp of the response event (`u64::MAX` when pending).
    pub resp_ts: u64,
}

impl Operation {
    /// Whether the operation completed (has a response).
    pub fn is_complete(&self) -> bool {
        self.resp.is_some()
    }
}

/// A concurrent history: recorded operations sorted by invoke timestamp.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    /// The operations, sorted by `invoke_ts`.
    pub ops: Vec<Operation>,
}

impl History {
    /// A history built directly from operations (sorts them by invoke
    /// timestamp). Useful in tests and converters.
    pub fn from_ops(mut ops: Vec<Operation>) -> History {
        ops.sort_by_key(|o| o.invoke_ts);
        History { ops }
    }

    /// Number of operations (completed + pending).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of completed operations.
    pub fn completed(&self) -> usize {
        self.ops.iter().filter(|o| o.is_complete()).count()
    }

    /// Splits the history per object id (P-compositionality: a history is
    /// linearizable iff each per-object subhistory is).
    pub fn split_objects(&self) -> BTreeMap<u64, History> {
        let mut map: BTreeMap<u64, History> = BTreeMap::new();
        for op in &self.ops {
            map.entry(op.obj).or_default().ops.push(*op);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_ops_pair_and_order() {
        let rec = Recorder::new(2);
        let t0 = rec.invoke(ProcId(0), 0, 10);
        rec.response(ProcId(0), 0, t0, 100);
        let t1 = rec.invoke(ProcId(1), 0, 11);
        rec.response(ProcId(1), 0, t1, 101);
        let h = rec.history();
        assert_eq!(h.len(), 2);
        assert_eq!(h.completed(), 2);
        assert!(
            h.ops[0].resp_ts < h.ops[1].invoke_ts,
            "real-time order kept"
        );
        assert_eq!(h.ops[0].resp, Some(100));
        assert_eq!(h.ops[1].pid, ProcId(1));
    }

    #[test]
    fn unmatched_invoke_is_pending() {
        let rec = Recorder::new(1);
        let _t = rec.invoke(ProcId(0), 7, 42);
        let h = rec.history();
        assert_eq!(h.len(), 1);
        assert_eq!(h.completed(), 0);
        assert_eq!(h.ops[0].resp, None);
        assert_eq!(h.ops[0].resp_ts, u64::MAX);
        assert_eq!(h.ops[0].obj, 7);
    }

    #[test]
    fn overflow_drops_and_reports() {
        let rec = Recorder::with_capacity(1, 2);
        let t = rec.invoke(ProcId(0), 0, 1);
        rec.response(ProcId(0), 0, t, 0);
        assert_eq!(rec.dropped(), 0);
        rec.invoke(ProcId(0), 0, 2);
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.history().len(), 1, "overflowed event not merged");
    }

    #[test]
    fn concurrent_recording_respects_real_time_precedence() {
        let rec = Arc::new(Recorder::new(4));
        std::thread::scope(|scope| {
            for i in 0..4 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    for k in 0..50 {
                        let t = rec.invoke(ProcId(i), 0, k);
                        rec.response(ProcId(i), 0, t, k);
                    }
                });
            }
        });
        let h = rec.history();
        assert_eq!(h.len(), 200);
        assert_eq!(h.completed(), 200);
        // Per process, operations are strictly ordered.
        for pid in 0..4 {
            let mine: Vec<&Operation> = h.ops.iter().filter(|o| o.pid == ProcId(pid)).collect();
            assert!(mine.windows(2).all(|w| w[0].resp_ts < w[1].invoke_ts));
        }
    }

    #[test]
    fn split_objects_partitions() {
        let rec = Recorder::new(1);
        for obj in [3u64, 1, 3] {
            let t = rec.invoke(ProcId(0), obj, 0);
            rec.response(ProcId(0), obj, t, 0);
        }
        let parts = rec.history().split_objects();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[&3].len(), 2);
        assert_eq!(parts[&1].len(), 1);
    }
}
