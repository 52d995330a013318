//! The single-writer event lane both recorders keep per process: invoke
//! and response events appended by the owning thread, paired into
//! [`Operation`]s by a reader that knows the thread has stopped writing.
//!
//! A push writes the next slot and then release-stores the length; a
//! reader acquire-loads the length, which synchronizes with every slot
//! below it. [`crate::history::Recorder`] reads at quiescence and
//! [`crate::window::WindowRecorder`] after the worker's heartbeat shows it
//! left the bank, so no slot is read while it is written.

use crate::history::Operation;
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use tfr_registers::ProcId;

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RawEvent {
    /// Global timestamp of this event.
    ts: u64,
    /// Object id the event belongs to.
    obj: u64,
    /// Invoke: the encoded operation. Response: the paired invoke's
    /// timestamp (the token).
    a: u64,
    /// Response: the encoded response (unused for invokes).
    b: u64,
    /// `false` = invoke, `true` = response.
    is_response: bool,
}

impl RawEvent {
    /// An invocation of `op` on `obj` at `ts`.
    pub(crate) fn invoke(ts: u64, obj: u64, op: u64) -> RawEvent {
        RawEvent {
            ts,
            obj,
            a: op,
            b: 0,
            is_response: false,
        }
    }

    /// The response `resp` at `ts` of the invocation stamped `token`.
    pub(crate) fn response(ts: u64, obj: u64, token: u64, resp: u64) -> RawEvent {
        RawEvent {
            ts,
            obj,
            a: token,
            b: resp,
            is_response: true,
        }
    }
}

/// A bounded append-only buffer with one writer.
pub(crate) struct Lane {
    len: AtomicUsize,
    slots: Box<[UnsafeCell<RawEvent>]>,
}

// SAFETY: slots are written only by the lane's single owning thread (the
// documented contract of both recorders) before a release-store of `len`,
// and read only below an acquire-loaded `len` once that thread has
// stopped writing (see the module docs).
unsafe impl Sync for Lane {}

impl Lane {
    pub(crate) fn new(capacity: usize) -> Lane {
        Lane {
            len: AtomicUsize::new(0),
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(RawEvent::default()))
                .collect(),
        }
    }

    /// Whether `k` more events fit.
    pub(crate) fn has_room(&self, k: usize) -> bool {
        self.len.load(Ordering::Relaxed) + k <= self.slots.len()
    }

    /// Appends `ev`; false if the lane is full. Owning thread only.
    pub(crate) fn push(&self, ev: RawEvent) -> bool {
        let i = self.len.load(Ordering::Relaxed);
        if i >= self.slots.len() {
            return false;
        }
        // SAFETY: single writer; `i` is below capacity.
        unsafe {
            *self.slots[i].get() = ev;
        }
        self.len.store(i + 1, Ordering::Release);
        true
    }

    /// Pairs the lane's invokes with their responses, appending one
    /// operation per invoke to `ops` (pending if it has no response), and
    /// returns how many are pending. Only once the writer has stopped.
    pub(crate) fn pair_into(&self, pid: ProcId, ops: &mut Vec<Operation>) -> usize {
        let len = self.len.load(Ordering::Acquire);
        // Token (invoke timestamp) → index into `ops`.
        let mut open: BTreeMap<u64, usize> = BTreeMap::new();
        for slot in &self.slots[..len] {
            // SAFETY: indices below the acquired `len` were fully written
            // before the matching release-store, and the writer stopped.
            let ev = unsafe { *slot.get() };
            if ev.is_response {
                if let Some(idx) = open.remove(&ev.a) {
                    let op: &mut Operation = &mut ops[idx];
                    op.resp = Some(ev.b);
                    op.resp_ts = ev.ts;
                }
            } else {
                open.insert(ev.ts, ops.len());
                ops.push(Operation {
                    pid,
                    obj: ev.obj,
                    op: ev.a,
                    resp: None,
                    invoke_ts: ev.ts,
                    resp_ts: u64::MAX,
                });
            }
        }
        open.len()
    }

    /// Empties the lane for its writer's next use.
    pub(crate) fn clear(&self) {
        self.len.store(0, Ordering::Release);
    }
}
