//! The independence relation the partial-order reduction is keyed on.
//!
//! Two transitions of *different* processes are **dependent** (conflict)
//! when they access the same register and at least one writes it — or
//! when both emit critical-section events. Everything else commutes:
//!
//! * reads of the same or different registers commute — a read does not
//!   change the bank;
//! * accesses to distinct registers commute — each observes and updates
//!   disjoint bank entries;
//! * `Delay`/local steps commute with everything — in the asynchronous
//!   closure a delay has no effect on shared state at all;
//! * process-local state and the safety monitor's per-process slots are
//!   disjoint between processes, so they never induce extra conflicts.
//!
//! This is the exact-commutation notion DPOR requires: for independent
//! transitions `t`, `u` enabled in the same configuration, executing
//! `t;u` and `u;t` yields the *identical* global configuration (bank,
//! local states, monitor), and neither order enables or disables the
//! other (a non-halted process stays non-halted; its next action is a
//! function of its own local state only).
//!
//! # Why critical-section events conflict
//!
//! Commuting two steps preserves the *final* configuration but swaps
//! the *intermediate* one — so a safety property must be closed under
//! such swaps (trace-closed) for the reduction to preserve its verdict.
//! Decisions are: `decided` slots are write-once, so a disagreement or
//! invalid decision is visible in every ordering once both steps ran.
//! Critical-section occupancy is *not*: `p exits; q enters` and
//! `q enters; p exits` reach the same final state, but only the second
//! passes through the two-in-CS configuration. Ordering all CS events
//! against each other fixes the global Enter/Exit sequence within an
//! equivalence class, making mutual exclusion trace-closed too. (This
//! is the seed-1 corpus program in miniature: all reads, no writes —
//! the overlap exists in some orderings only.)

use tfr_registers::spec::Action;
use tfr_registers::RegId;

/// The shared-memory part of a transition's footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// No shared access (`Delay` — local computation only).
    Local,
    /// Atomic read of a register.
    Read(RegId),
    /// Atomic write of a register (the written value is irrelevant to
    /// dependence: we conservatively treat same-value writes as
    /// conflicting too).
    Write(RegId),
}

impl Kind {
    /// The footprint kind of an action.
    ///
    /// # Panics
    ///
    /// Panics on `Halt`: a halted process has no transition.
    pub fn of(action: Action) -> Kind {
        match action {
            Action::Read(r) => Kind::Read(r),
            Action::Write(r, _) => Kind::Write(r),
            Action::Delay(_) => Kind::Local,
            Action::Halt => panic!("a halted process has no access footprint"),
        }
    }
}

/// The full footprint of one transition, as seen by the independence
/// relation: its register access plus whether it emits a
/// critical-section event (`EnterCritical`/`ExitCritical`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Access {
    /// The register access performed.
    pub kind: Kind,
    /// Whether applying the step emits `EnterCritical`/`ExitCritical`.
    pub cs: bool,
}

impl Access {
    /// A purely local step with no monitored events.
    pub const LOCAL: Access = Access {
        kind: Kind::Local,
        cs: false,
    };

    /// The register touched, if any.
    pub fn reg(&self) -> Option<RegId> {
        match self.kind {
            Kind::Local => None,
            Kind::Read(r) | Kind::Write(r) => Some(r),
        }
    }

    /// Whether this footprint writes shared memory.
    pub fn is_write(&self) -> bool {
        matches!(self.kind, Kind::Write(_))
    }
}

/// Whether two transitions conflict (are *dependent*): different
/// processes, and either a register conflict (same register, at least
/// one write) or both emitting critical-section events.
#[inline]
pub fn conflicts(p: usize, a: Access, q: usize, b: Access) -> bool {
    if p == q {
        // Same process: its own steps are totally ordered anyway; the
        // reduction never reorders them.
        return false;
    }
    if a.cs && b.cs {
        return true;
    }
    match (a.reg(), b.reg()) {
        (Some(r), Some(s)) => r == s && (a.is_write() || b.is_write()),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::Ticks;

    fn acc(kind: Kind) -> Access {
        Access { kind, cs: false }
    }

    fn cs(kind: Kind) -> Access {
        Access { kind, cs: true }
    }

    #[test]
    fn conflict_table() {
        let r = RegId(3);
        let s = RegId(4);
        // Same register, at least one write, different processes.
        assert!(conflicts(0, acc(Kind::Read(r)), 1, acc(Kind::Write(r))));
        assert!(conflicts(0, acc(Kind::Write(r)), 1, acc(Kind::Read(r))));
        assert!(conflicts(0, acc(Kind::Write(r)), 1, acc(Kind::Write(r))));
        // Reads commute.
        assert!(!conflicts(0, acc(Kind::Read(r)), 1, acc(Kind::Read(r))));
        // Distinct registers commute.
        assert!(!conflicts(0, acc(Kind::Write(r)), 1, acc(Kind::Write(s))));
        // Delays commute with everything.
        assert!(!conflicts(0, Access::LOCAL, 1, acc(Kind::Write(r))));
        // Same process never self-conflicts.
        assert!(!conflicts(2, acc(Kind::Write(r)), 2, acc(Kind::Write(r))));
    }

    #[test]
    fn cs_events_are_mutually_dependent() {
        let r = RegId(0);
        let s = RegId(1);
        // Two CS events conflict even on disjoint registers or none.
        assert!(conflicts(0, cs(Kind::Read(r)), 1, cs(Kind::Read(s))));
        assert!(conflicts(0, cs(Kind::Local), 1, cs(Kind::Local)));
        // A CS event and a plain access stay independent.
        assert!(!conflicts(0, cs(Kind::Local), 1, acc(Kind::Write(r))));
        // Same process: still no self-conflict.
        assert!(!conflicts(1, cs(Kind::Local), 1, cs(Kind::Local)));
    }

    #[test]
    fn access_of_actions() {
        assert_eq!(Kind::of(Action::Read(RegId(1))), Kind::Read(RegId(1)));
        assert_eq!(Kind::of(Action::Write(RegId(2), 9)), Kind::Write(RegId(2)));
        assert_eq!(Kind::of(Action::Delay(Ticks(5))), Kind::Local);
        assert!(acc(Kind::Write(RegId(0))).is_write());
        assert!(!acc(Kind::Read(RegId(0))).is_write());
        assert_eq!(Access::LOCAL.reg(), None);
    }
}
