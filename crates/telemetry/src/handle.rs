//! The zero-cost-when-disabled attachment point, plus thread→process
//! registration for layers whose APIs carry no process id.
//!
//! Every traced object carries a [`Trace`], disabled by default, and the
//! only hot-path cost while disabled is a single `Option` check per hook. An observer attaches a
//! shared [`Tracer`] via the object's `with_trace` builder.
//!
//! Some feedback paths have no process id in their signature (the
//! `DelaySource` methods, `NativeConsensus::propose`). For those,
//! [`with_pid`] registers the calling thread as a process for the duration
//! of a closure, and [`Trace::emit_current`] resolves it; an unregistered
//! thread's `emit_current` is a silent no-op (the event has no lane to
//! land in).

use crate::event::EventKind;
use crate::ring::Tracer;
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;
use tfr_registers::ProcId;

thread_local! {
    static CURRENT_PID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread registered as `pid` for
/// [`Trace::emit_current`]. Nests by shadowing: the previous registration
/// is restored on exit (also on unwind — a chaos crash-stop must not leak
/// a stale pid to the next closure on a pooled thread).
///
/// # Example
///
/// ```
/// use tfr_telemetry::{current_pid, with_pid};
/// use tfr_registers::ProcId;
///
/// assert_eq!(current_pid(), None);
/// with_pid(ProcId(3), || {
///     assert_eq!(current_pid(), Some(ProcId(3)));
/// });
/// assert_eq!(current_pid(), None);
/// ```
pub fn with_pid<T>(pid: ProcId, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_PID.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT_PID.with(|c| c.replace(Some(pid.0))));
    f()
}

/// The process the calling thread is registered as, if any.
pub fn current_pid() -> Option<ProcId> {
    CURRENT_PID.with(|c| c.get()).map(ProcId)
}

/// An optional [`Tracer`] attachment point: disabled (and free) unless an
/// observer installs one.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tfr_telemetry::{EventKind, Trace, Tracer};
/// use tfr_registers::ProcId;
///
/// let off = Trace::disabled();
/// assert!(!off.is_enabled());
/// off.emit(ProcId(0), EventKind::LockReleased); // free no-op
///
/// let tracer = Arc::new(Tracer::new(1));
/// let on = Trace::attached(Arc::clone(&tracer));
/// on.emit(ProcId(0), EventKind::LockAcquired { wait_ns: 7 });
/// assert_eq!(tracer.events().len(), 1);
/// ```
#[derive(Clone, Default)]
pub struct Trace(Option<Arc<Tracer>>);

impl Trace {
    /// The disabled trace — what every object starts with.
    pub const fn disabled() -> Trace {
        Trace(None)
    }

    /// A trace recording into `tracer`.
    pub fn attached(tracer: Arc<Tracer>) -> Trace {
        Trace(Some(tracer))
    }

    /// Whether a tracer is attached.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.0.as_ref()
    }

    /// Nanoseconds since the attached tracer's epoch (`None` when
    /// disabled). Use to compute derived payloads — e.g. a lock's entry
    /// wait — only when someone is listening.
    #[inline]
    pub fn now_ns(&self) -> Option<u64> {
        self.0.as_ref().map(|t| t.now_ns())
    }

    /// Records `kind` as `pid`, stamped now. One `Option` check when
    /// disabled. Single-writer contract: call on the thread acting as
    /// `pid`.
    #[inline]
    pub fn emit(&self, pid: ProcId, kind: EventKind) {
        if let Some(t) = &self.0 {
            t.emit(pid, kind);
        }
    }

    /// Records `kind` as the thread's registered process (see
    /// [`with_pid`]); a no-op when disabled or unregistered.
    #[inline]
    pub fn emit_current(&self, kind: EventKind) {
        if let Some(t) = &self.0 {
            if let Some(pid) = current_pid() {
                t.emit(pid, kind);
            }
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("Trace(attached)"),
            None => f.write_str("Trace(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_is_inert() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.now_ns(), None);
        t.emit(ProcId(0), EventKind::DelayEnd);
        t.emit_current(EventKind::DelayEnd);
        assert!(t.tracer().is_none());
    }

    #[test]
    fn emit_current_requires_registration() {
        let tracer = Arc::new(Tracer::new(2));
        let trace = Trace::attached(Arc::clone(&tracer));
        trace.emit_current(EventKind::LockReleased); // unregistered: dropped
        with_pid(ProcId(1), || trace.emit_current(EventKind::LockReleased));
        let ev = tracer.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].pid, ProcId(1));
    }

    #[test]
    fn with_pid_restores_on_unwind() {
        let _ = std::panic::catch_unwind(|| {
            with_pid(ProcId(0), || panic!("boom"));
        });
        assert_eq!(current_pid(), None);
    }

    #[test]
    fn with_pid_nests_by_shadowing() {
        with_pid(ProcId(1), || {
            with_pid(ProcId(2), || assert_eq!(current_pid(), Some(ProcId(2))));
            assert_eq!(current_pid(), Some(ProcId(1)));
        });
    }

    #[test]
    fn debug_formats_both_states() {
        assert_eq!(format!("{:?}", Trace::disabled()), "Trace(disabled)");
        let t = Trace::attached(Arc::new(Tracer::new(1)));
        assert_eq!(format!("{t:?}"), "Trace(attached)");
    }
}
