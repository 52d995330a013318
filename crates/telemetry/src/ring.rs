//! The lock-free tracing core: per-process single-writer event buffers,
//! merged at quiescence.
//!
//! Same discipline as the `tfr-linearize` history recorder: each process
//! writes only its own buffer (a slot write followed by a release-store of
//! the length), so recording needs no locks and no read-modify-write on
//! the hot path; the merge acquire-loads each length, which synchronizes
//! with every recorded slot. A full buffer drops events and counts them —
//! a non-zero [`Tracer::dropped`] means the timeline is incomplete and the
//! buffers should be sized up.
//!
//! Timestamps come from one shared epoch (`Instant` at construction), so
//! events from different threads are directly comparable; post-hoc
//! stamping goes through [`Tracer::emit_at`].

use crate::event::{Event, EventKind};
use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use tfr_registers::ProcId;

/// Default per-process event capacity.
pub const DEFAULT_EVENTS_PER_PROCESS: usize = 16 * 1024;

/// One process's lane. Every `emit` stores its `len`, so lanes sit on
/// their own cache lines (128 bytes: the adjacent-line prefetcher pairs
/// 64-byte lines); packed at 24 bytes, four writers shared one line.
#[repr(align(128))]
struct ProcBuf {
    len: AtomicUsize,
    slots: Box<[UnsafeCell<Event>]>,
}

// SAFETY: slots are written only by the single thread acting as the
// owning process (the documented contract of `emit`/`emit_at`) before a
// release-store of `len`, and read only at/after an acquire-load of `len`.
unsafe impl Sync for ProcBuf {}

impl ProcBuf {
    fn new(capacity: usize) -> ProcBuf {
        let filler = Event {
            ts_ns: 0,
            pid: ProcId(0),
            kind: EventKind::DelayEnd,
        };
        ProcBuf {
            len: AtomicUsize::new(0),
            slots: (0..capacity).map(|_| UnsafeCell::new(filler)).collect(),
        }
    }
}

/// A lock-free event tracer for `n` processes.
///
/// # Single-writer contract
///
/// [`Tracer::emit`] and [`Tracer::emit_at`] for a given `pid` must only be
/// called from the one thread currently acting as that process — the same
/// contract as the chaos harness's `run_as` and the linearize recorder.
/// Reading ([`Tracer::events`]) is safe from any thread but only complete
/// at quiescence.
///
/// # Example
///
/// ```
/// use tfr_telemetry::{EventKind, Tracer};
/// use tfr_registers::ProcId;
///
/// let tracer = Tracer::new(2);
/// tracer.emit(ProcId(0), EventKind::LockWaitStart);
/// tracer.emit(ProcId(0), EventKind::LockAcquired { wait_ns: 120 });
/// tracer.emit(ProcId(1), EventKind::RoundStart { round: 1 });
///
/// let events = tracer.events();
/// assert_eq!(events.len(), 3);
/// // Merged events come back sorted by timestamp.
/// assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
/// assert_eq!(tracer.dropped(), 0);
/// ```
pub struct Tracer {
    epoch: Instant,
    bufs: Vec<ProcBuf>,
    dropped: AtomicU64,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("processes", &self.bufs.len())
            .field("dropped", &self.dropped.load(Ordering::SeqCst))
            .finish()
    }
}

impl Tracer {
    /// A tracer for `n` processes with the default per-process capacity.
    pub fn new(n: usize) -> Tracer {
        Tracer::with_capacity(n, DEFAULT_EVENTS_PER_PROCESS)
    }

    /// A tracer for `n` processes holding up to `events_per_process`
    /// events for each.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_capacity(n: usize, events_per_process: usize) -> Tracer {
        assert!(n > 0, "at least one process is required");
        Tracer {
            epoch: Instant::now(),
            bufs: (0..n).map(|_| ProcBuf::new(events_per_process)).collect(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of traced processes.
    pub fn n(&self) -> usize {
        self.bufs.len()
    }

    /// Nanoseconds elapsed since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the epoch to `at` (0 if `at` predates the epoch).
    pub fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `kind` for `pid`, stamped now. Must be called on the thread
    /// acting as `pid` (single-writer contract). Out-of-range pids and
    /// full buffers drop the event and bump [`Tracer::dropped`].
    #[inline]
    pub fn emit(&self, pid: ProcId, kind: EventKind) {
        self.emit_at(pid, self.now_ns(), kind);
    }

    /// Records `kind` for `pid` with an explicit timestamp (post-hoc
    /// stamping). Same single-writer contract as
    /// [`Tracer::emit`].
    #[inline]
    pub fn emit_at(&self, pid: ProcId, ts_ns: u64, kind: EventKind) {
        let Some(buf) = self.bufs.get(pid.0) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let i = buf.len.load(Ordering::Relaxed);
        if i >= buf.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: single writer per pid; `i` is below capacity.
        unsafe {
            *buf.slots[i].get() = Event { ts_ns, pid, kind };
        }
        buf.len.store(i + 1, Ordering::Release);
    }

    /// Number of events dropped because a buffer filled up (or a pid was
    /// out of range). Non-zero means [`Tracer::events`] is incomplete.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Merges every per-process buffer into one timeline, sorted by
    /// timestamp (ties keep per-process order). Call at quiescence: every
    /// emitting thread has finished (or died).
    pub fn events(&self) -> Vec<Event> {
        let mut all = Vec::new();
        for buf in &self.bufs {
            let len = buf.len.load(Ordering::Acquire);
            for slot in &buf.slots[..len] {
                // SAFETY: indices below the acquired `len` were fully
                // written before the matching release-store.
                all.push(unsafe { *slot.get() });
            }
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Appends every event recorded since the last drain through `cursor`
    /// onto `out` and returns how many were appended. Safe to call *while
    /// writers are live*: each per-process length only grows, and the
    /// acquire-load synchronizes with the writer's release-store, so every
    /// slot below the observed length is fully written.
    ///
    /// Events are appended lane by lane in pid order; within a lane they
    /// are in emission order, and successive drains of one lane never
    /// reorder or repeat. **No cross-lane timestamp merge is performed** —
    /// a live consumer (the collector's online monitors) must only rely on
    /// per-lane order, which is exactly the order guarantee the
    /// single-writer contract provides.
    ///
    /// # Example
    ///
    /// ```
    /// use tfr_telemetry::{DrainCursor, EventKind, Tracer};
    /// use tfr_registers::ProcId;
    ///
    /// let t = Tracer::new(1);
    /// let mut cursor = DrainCursor::new();
    /// let mut out = Vec::new();
    /// t.emit(ProcId(0), EventKind::LockWaitStart);
    /// assert_eq!(t.drain_new(&mut cursor, &mut out), 1);
    /// t.emit(ProcId(0), EventKind::LockReleased);
    /// assert_eq!(t.drain_new(&mut cursor, &mut out), 1, "only the new event");
    /// assert_eq!(out.len(), 2);
    /// ```
    pub fn drain_new(&self, cursor: &mut DrainCursor, out: &mut Vec<Event>) -> usize {
        cursor.offsets.resize(self.bufs.len(), 0);
        let mut drained = 0;
        for (offset, buf) in cursor.offsets.iter_mut().zip(&self.bufs) {
            let len = buf.len.load(Ordering::Acquire);
            for slot in &buf.slots[*offset..len] {
                // SAFETY: indices below the acquired `len` were fully
                // written before the matching release-store, and lengths
                // never shrink — `*offset <= len` always holds.
                out.push(unsafe { *slot.get() });
            }
            drained += len - *offset;
            *offset = len;
        }
        drained
    }
}

/// Per-lane progress of an incremental [`Tracer::drain_new`] consumer:
/// how many events of each process's buffer have already been taken.
/// One cursor belongs to one consumer; fresh cursors start at the
/// beginning of every lane.
#[derive(Debug, Default, Clone)]
pub struct DrainCursor {
    offsets: Vec<usize>,
}

impl DrainCursor {
    /// A cursor positioned at the start of every lane.
    pub fn new() -> DrainCursor {
        DrainCursor::default()
    }

    /// Total events this cursor has drained across all lanes.
    pub fn drained(&self) -> usize {
        self.offsets.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_pid_is_counted_not_panicked() {
        let t = Tracer::new(1);
        t.emit(ProcId(5), EventKind::DelayEnd);
        assert_eq!(t.dropped(), 1);
        assert!(t.events().is_empty());
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let t = Tracer::with_capacity(1, 2);
        for _ in 0..5 {
            t.emit(ProcId(0), EventKind::LockReleased);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn timestamps_are_monotone_per_thread() {
        let t = Tracer::new(1);
        for _ in 0..100 {
            t.emit(ProcId(0), EventKind::DelayEnd);
        }
        let ev = t.events();
        assert!(ev.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn concurrent_emitters_all_land() {
        let t = Tracer::new(4);
        std::thread::scope(|s| {
            for i in 0..4usize {
                let t = &t;
                s.spawn(move || {
                    for r in 0..1_000u64 {
                        t.emit(ProcId(i), EventKind::RoundStart { round: r });
                    }
                });
            }
        });
        assert_eq!(t.events().len(), 4_000);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn drain_new_is_incremental_and_complete_under_concurrency() {
        let t = Tracer::new(2);
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for i in 0..2usize {
                let (t, done) = (&t, &done);
                s.spawn(move || {
                    for r in 0..2_000u64 {
                        t.emit(ProcId(i), EventKind::RoundStart { round: r });
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            let mut cursor = DrainCursor::new();
            let mut out = Vec::new();
            // Poll live until both writers finish, then drain the rest.
            while done.load(Ordering::SeqCst) < 2 {
                t.drain_new(&mut cursor, &mut out);
                std::hint::spin_loop();
            }
            t.drain_new(&mut cursor, &mut out);
            assert_eq!(out.len(), 4_000, "live drains lose nothing");
            assert_eq!(cursor.drained(), 4_000);
            // Per-lane order survives the incremental drain.
            for lane in 0..2usize {
                let rounds: Vec<u64> = out
                    .iter()
                    .filter(|e| e.pid == ProcId(lane))
                    .map(|e| match e.kind {
                        EventKind::RoundStart { round } => round,
                        _ => unreachable!(),
                    })
                    .collect();
                assert!(rounds.windows(2).all(|w| w[1] == w[0] + 1));
            }
            // A fully drained cursor yields nothing more.
            assert_eq!(t.drain_new(&mut cursor, &mut out), 0);
        });
    }

    #[test]
    fn lanes_do_not_share_a_cache_line() {
        let t = Tracer::new(2);
        let (a, b) = (
            &t.bufs[0].len as *const _ as usize,
            &t.bufs[1].len as *const _ as usize,
        );
        assert!(
            b.abs_diff(a) >= 128,
            "lane lengths {} bytes apart",
            b.abs_diff(a)
        );
    }

    #[test]
    fn explicit_stamps_pass_through() {
        let t = Tracer::new(1);
        t.emit_at(ProcId(0), 42_000, EventKind::RoundStart { round: 1 });
        assert_eq!(t.events()[0].ts_ns, 42_000);
    }
}
