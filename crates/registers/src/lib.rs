//! Register and execution-model substrate for the `tfr` workspace.
//!
//! The paper ("Computing in the Presence of Timing Failures", Taubenfeld,
//! ICDCS 2006) works in a shared-memory model whose only communication
//! primitive is the **atomic read/write register**, extended with a known
//! upper bound Δ on the duration of any single shared-memory access and an
//! explicit `delay(d)` statement. This crate provides the common vocabulary
//! that every other crate in the workspace builds on:
//!
//! * [`ProcId`] / [`RegId`] — process and register identities.
//! * [`Ticks`] / [`Delta`] — virtual time and the Δ bound.
//! * [`spec`] — the *specification form* of an algorithm: an explicit Mealy
//!   machine ([`spec::Automaton`]) whose atomic actions are single register
//!   accesses. The simulator (`tfr-sim`) and the model checker
//!   (`tfr-modelcheck`) both drive this form.
//! * [`bank`] — register files the spec form executes against.
//! * [`native`] — building blocks for the *native form* of the algorithms
//!   (real `std::sync::atomic` registers on real threads), most notably the
//!   unbounded atomic arrays that Algorithm 1's infinite `x[1..∞, 0..1]` and
//!   `y[1..∞]` arrays require.
//! * [`space`] — the backend-neutral [`space::RegisterSpace`] trait: an
//!   unbounded zero-initialized register array that both shared memory
//!   ([`space::NativeSpace`]) and the `tfr-net` quorum emulation
//!   implement, so the native algorithms run unchanged on either.
//! * [`chaos`] — native fault injection: named injection points threaded
//!   through the native stack, at which a registered thread can be stalled
//!   (a timing failure), crash-stopped, or crashed-for-recovery,
//!   deterministically by visit count.
//! * [`durable`] — the crash-*recovery* memory model: persistent vs
//!   volatile segments of a [`space::RegisterSpace`] (volatile contents
//!   reset when their owner crashes) and per-process incarnation counters
//!   for stale-write detection.
//! * [`rng`] — a tiny seedable PRNG (SplitMix64) for reproducible timing
//!   models, fault schedules, and randomized tests.
//! * [`accounting`] — static register-usage reports (experiment E9, the
//!   Burns–Lynch / Lynch–Shavit n-register lower bound of Theorem 3.1).
//!
//! # Example
//!
//! ```
//! use tfr_registers::bank::{ArrayBank, RegisterBank};
//! use tfr_registers::RegId;
//!
//! let mut bank = ArrayBank::new();
//! bank.write(RegId(3), 17);
//! assert_eq!(bank.read(RegId(3)), 17);
//! assert_eq!(bank.read(RegId(999)), 0); // registers are zero-initialized
//! ```

pub mod accounting;
pub mod bank;
pub mod chaos;
pub mod durable;
pub mod native;
pub mod rng;
pub mod space;
pub mod spec;
mod time;

pub use time::{Delta, Ticks};

use core::fmt;

/// Identity of a process (thread) participating in an algorithm.
///
/// Processes are numbered `0..n`. The paper numbers processes `1..n`; we use
/// zero-based ids throughout and encode "process i" register values as
/// `i + 1` wherever the paper stores a process id in a register whose zero
/// value means "free" (e.g. Fischer's `x` register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcId(pub usize);

impl ProcId {
    /// The register encoding of this process id where `0` means "no
    /// process" (Fischer's lock word, bakery tickets, ...).
    #[inline]
    pub fn token(self) -> u64 {
        self.0 as u64 + 1
    }

    /// Inverse of [`ProcId::token`].
    ///
    /// Returns `None` for the "no process" encoding `0`.
    #[inline]
    pub fn from_token(token: u64) -> Option<ProcId> {
        token.checked_sub(1).map(|i| ProcId(i as usize))
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcId {
    fn from(i: usize) -> Self {
        ProcId(i)
    }
}

/// Identity of a shared atomic register.
///
/// Registers hold a `u64` and are zero-initialized. Algorithms that need
/// unbounded register arrays (Algorithm 1 uses `x[1..∞, 0..1]` and
/// `y[1..∞]`) pack `(array, index)` into the 64-bit id space; each
/// algorithm's `layout` module documents its packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegId(pub u64);

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u64> for RegId {
    fn from(i: u64) -> Self {
        RegId(i)
    }
}

impl RegId {
    /// Returns the register id shifted by `base`, used to give
    /// sub-algorithms (e.g. the inner lock `A` of Algorithm 3) a private
    /// region of the register address space.
    #[inline]
    pub fn offset(self, base: u64) -> RegId {
        RegId(self.0 + base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_id_token_round_trip() {
        for i in [0usize, 1, 7, 1024] {
            let p = ProcId(i);
            assert_eq!(ProcId::from_token(p.token()), Some(p));
        }
        assert_eq!(ProcId::from_token(0), None);
    }

    #[test]
    fn proc_id_display() {
        assert_eq!(ProcId(3).to_string(), "p3");
    }

    #[test]
    fn reg_id_offset() {
        assert_eq!(RegId(5).offset(100), RegId(105));
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<RegId> = [RegId(3), RegId(1), RegId(2)].into_iter().collect();
        assert_eq!(
            set.into_iter().collect::<Vec<_>>(),
            vec![RegId(1), RegId(2), RegId(3)]
        );
    }
}
