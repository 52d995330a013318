//! Causal spans: nested, cross-substrate parent/child contexts that turn
//! the flat event stream into a tree.
//!
//! A span is a named interval opened by [`Span::enter`] and closed when
//! the returned guard drops. Span ids are process-global and never reused
//! (`0` means "no span"), so an id stamped onto a network message on one
//! lane unambiguously names the client-side span that caused it — the
//! exporter turns those stamps into Perfetto flow links, and a walker can
//! reconstruct the whole causal tree of one client operation: client op →
//! batch drive → consensus decision → quorum phases → per-replica message
//! round trips.
//!
//! The current span is thread-local, exactly like [`crate::with_pid`]'s
//! process registration: entering a span shadows the previous one and the
//! guard restores it on drop (also on unwind). Layers that cannot see the
//! guard — the network client stamping outgoing messages — read the
//! ambient id with [`current_span_id`].
//!
//! When the trace is disabled, [`Span::enter`] allocates no id, touches no
//! thread-local, and emits nothing: the disabled path stays one `Option`
//! check, the same contract as every other telemetry hook.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tfr_registers::ProcId;
//! use tfr_telemetry::span::{current_span_id, Span};
//! use tfr_telemetry::{with_pid, EventKind, Trace, Tracer};
//!
//! let tracer = Arc::new(Tracer::new(1));
//! let trace = Trace::attached(Arc::clone(&tracer));
//! with_pid(ProcId(0), || {
//!     let _op = Span::enter(&trace, "client.op");
//!     let op_id = current_span_id();
//!     assert_ne!(op_id, 0);
//!     {
//!         let _phase = Span::enter(&trace, "phase");
//!         assert_ne!(current_span_id(), op_id, "child shadows parent");
//!     }
//!     assert_eq!(current_span_id(), op_id, "guard restores parent");
//! });
//! let events = tracer.events();
//! // One SpanStart/SpanEnd pair per guard, child parented to the root.
//! let starts: Vec<_> = events
//!     .iter()
//!     .filter_map(|e| match e.kind {
//!         EventKind::SpanStart { span, parent, .. } => Some((span, parent)),
//!         _ => None,
//!     })
//!     .collect();
//! assert_eq!(starts.len(), 2);
//! assert_eq!(starts[1].1, starts[0].0, "child's parent is the root id");
//! assert_eq!(starts[0].1, 0, "the root has no parent");
//! ```

use crate::event::EventKind;
use crate::handle::Trace;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global span-id source. Starts at 1: id 0 is reserved for
/// "no span" in thread-locals and message stamps.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Threads take span ids from [`NEXT_SPAN_ID`] in blocks this large: one
/// shared `fetch_add` per block instead of per span, whose cache line
/// otherwise bounces between every tracing worker (it doubled a span
/// event's cost at two threads).
const ID_BLOCK: u64 = 1024;

thread_local! {
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    /// The calling thread's unused span ids, `next..end`.
    static ID_RANGE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A fresh span id: unique process-wide and never 0, but only ordered
/// within one thread.
fn next_span_id() -> u64 {
    ID_RANGE.with(|r| {
        let (mut next, mut end) = r.get();
        if next == end {
            next = NEXT_SPAN_ID.fetch_add(ID_BLOCK, Ordering::Relaxed);
            end = next + ID_BLOCK;
        }
        r.set((next + 1, end));
        next
    })
}

/// The id of the innermost open span on the calling thread (`0` when no
/// span is open). This is what gets stamped onto network messages so
/// replica-side events can be causally linked back to the client span
/// that sent them.
#[inline]
pub fn current_span_id() -> u64 {
    CURRENT_SPAN.with(|c| c.get())
}

/// An open causal span; closing happens on drop (also on unwind, so a
/// chaos crash-stop cannot leak a stale span to the next closure on a
/// pooled thread).
///
/// Spans nest by shadowing the thread-local current id: events and
/// message stamps between `enter` and drop attribute to this span, and
/// its `SpanStart` records the id that was current at entry as `parent`.
#[must_use = "a span closes when the guard drops; binding it to _ closes it immediately"]
pub struct Span<'a> {
    trace: &'a Trace,
    /// This span's id, or 0 for the inert guard of a disabled trace.
    id: u64,
    /// The id to restore on drop.
    prev: u64,
}

impl<'a> Span<'a> {
    /// Opens a span named `label` under the thread's current span and
    /// emits [`EventKind::SpanStart`] on the calling thread's lane. A
    /// disabled `trace` returns an inert guard: no id is allocated and
    /// the thread-local is untouched.
    pub fn enter(trace: &'a Trace, label: &'static str) -> Span<'a> {
        if !trace.is_enabled() {
            return Span {
                trace,
                id: 0,
                prev: 0,
            };
        }
        let id = next_span_id();
        let prev = CURRENT_SPAN.with(|c| c.replace(id));
        trace.emit_current(EventKind::SpanStart {
            span: id,
            parent: prev,
            label,
        });
        Span { trace, id, prev }
    }

    /// This span's id (`0` for the inert guard of a disabled trace).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        self.trace
            .emit_current(EventKind::SpanEnd { span: self.id });
        CURRENT_SPAN.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::with_pid;
    use crate::ring::Tracer;
    use std::sync::Arc;
    use tfr_registers::ProcId;

    #[test]
    fn disabled_trace_spans_are_free_and_inert() {
        let trace = Trace::disabled();
        let before = NEXT_SPAN_ID.load(Ordering::Relaxed);
        {
            let g = Span::enter(&trace, "noop");
            assert_eq!(g.id(), 0);
            assert_eq!(current_span_id(), 0);
        }
        assert_eq!(NEXT_SPAN_ID.load(Ordering::Relaxed), before, "no id burned");
        assert_eq!(ID_RANGE.with(|r| r.get()), (0, 0), "no block taken");
    }

    #[test]
    fn ids_are_unique_and_nonzero_across_threads() {
        let tracer = Arc::new(Tracer::new(4));
        let ids: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let trace = Trace::attached(Arc::clone(&tracer));
                    s.spawn(move || {
                        with_pid(ProcId(i), || {
                            (0..100)
                                .map(|_| Span::enter(&trace, "w").id())
                                .collect::<Vec<u64>>()
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "every span id is unique");
        assert!(ids.iter().all(|&id| id != 0));
    }

    #[test]
    fn guard_restores_parent_on_unwind() {
        let tracer = Arc::new(Tracer::new(1));
        let trace = Trace::attached(Arc::clone(&tracer));
        with_pid(ProcId(0), || {
            let root = Span::enter(&trace, "root");
            let root_id = root.id();
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _child = Span::enter(&trace, "child");
                panic!("boom");
            }));
            assert_eq!(current_span_id(), root_id, "unwind closed the child");
        });
        assert_eq!(current_span_id(), 0, "all guards dropped");
    }

    #[test]
    fn start_and_end_events_pair_up() {
        let tracer = Arc::new(Tracer::new(1));
        let trace = Trace::attached(Arc::clone(&tracer));
        with_pid(ProcId(0), || {
            let _a = Span::enter(&trace, "a");
            let _b = Span::enter(&trace, "b");
        });
        let events = tracer.events();
        let starts: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                crate::EventKind::SpanStart { span, .. } => Some(span),
                _ => None,
            })
            .collect();
        let mut ends: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                crate::EventKind::SpanEnd { span } => Some(span),
                _ => None,
            })
            .collect();
        ends.sort_unstable();
        let mut sorted_starts = starts.clone();
        sorted_starts.sort_unstable();
        assert_eq!(sorted_starts, ends, "every start has a matching end");
        assert_eq!(starts.len(), 2);
    }
}
