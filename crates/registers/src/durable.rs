//! Register durability for the crash-*recovery* failure model.
//!
//! The paper's failure modes are timing failures and crash-*stop*: a
//! crashed process never runs again, so the question of which registers
//! survive the crash never arises. Recoverable mutual exclusion
//! (Golab–Ramaraju; Dhoked & Mittal, see PAPERS.md) asks the harsher
//! question: a process crashes, loses its **volatile** state, and later
//! restarts as a new *incarnation* that must repair whatever its previous
//! incarnation left behind. Two primitives make that model precise:
//!
//! * [`DurableSpace`] — a [`RegisterSpace`] wrapper that partitions the
//!   register address space into *persistent* registers (survive any
//!   crash — the default) and per-process *volatile* segments whose
//!   contents reset to zero when their owner crashes. It also counts
//!   accesses, which is how the bench layer measures super-passage cost.
//! * [`Incarnations`] — per-process incarnation (epoch) counters stored
//!   in persistent registers, with [`stamp`]/[`split`] helpers that pack
//!   an epoch into the high bits of a register value so a reader can
//!   detect a **stale write**: a value written by a pre-crash incarnation
//!   of its owner.
//!
//! Nothing here injects crashes — the chaos layer does that. `crash(pid)`
//! is the *memory side* of a crash: the recovery nemesis calls it when it
//! restarts a process, modelling the new incarnation starting from zeroed
//! volatile memory.
//!
//! # Example
//!
//! ```
//! use tfr_registers::durable::DurableSpace;
//! use tfr_registers::space::{NativeSpace, RegisterSpace};
//! use tfr_registers::ProcId;
//!
//! // Registers 100..110 are p0's volatile scratchpad; everything else
//! // is persistent.
//! let space = DurableSpace::new(NativeSpace::new()).volatile(ProcId(0), 100..110);
//! space.write(0, 7); // persistent
//! space.write(100, 9); // volatile, owned by p0
//! space.crash(ProcId(0));
//! assert_eq!(space.read(0), 7, "persistent registers survive");
//! assert_eq!(space.read(100), 0, "volatile registers reset on crash");
//! ```

use crate::space::{Access, RegisterSpace};
use crate::ProcId;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One volatile segment: a half-open register range owned by a process,
/// wiped (reset to zero) when that process crashes.
#[derive(Debug)]
struct VolatileSeg {
    owner: ProcId,
    range: Range<u64>,
    /// Indices written since the owner's last crash. Wiping only dirty
    /// cells keeps `crash` O(writes) instead of O(range).
    dirty: Mutex<HashSet<u64>>,
}

/// A [`RegisterSpace`] with a durability partition and access counters.
///
/// Every register is **persistent** unless claimed by a
/// [`DurableSpace::volatile`] segment. A volatile segment belongs to one
/// process; [`DurableSpace::crash`] resets that process's volatile
/// registers to zero, modelling the loss of volatile memory when the
/// process restarts. Persistent registers — the only ones a recoverable
/// algorithm may rely on across a crash — are untouched.
///
/// Reads and writes through the wrapper are counted ([`DurableSpace::reads`],
/// [`DurableSpace::writes`]), which is how experiment E21 measures the
/// shared-memory cost of a passage with and without recent failures.
#[derive(Debug)]
pub struct DurableSpace<S> {
    inner: S,
    segs: Vec<VolatileSeg>,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl<S: RegisterSpace> DurableSpace<S> {
    /// Wraps `inner` with every register persistent and no accesses
    /// counted yet.
    pub fn new(inner: S) -> DurableSpace<S> {
        DurableSpace {
            inner,
            segs: Vec::new(),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// Declares the half-open range `indices` volatile, owned by `owner`.
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps a previously declared volatile
    /// segment — a register cannot be lost with two different processes.
    pub fn volatile(mut self, owner: ProcId, indices: Range<u64>) -> DurableSpace<S> {
        for seg in &self.segs {
            let disjoint = indices.end <= seg.range.start || seg.range.end <= indices.start;
            assert!(
                disjoint,
                "volatile segment {indices:?} overlaps existing segment {:?} (owner {})",
                seg.range, seg.owner
            );
        }
        self.segs.push(VolatileSeg {
            owner,
            range: indices,
            dirty: Mutex::new(HashSet::new()),
        });
        self
    }

    /// The memory side of a crash of `pid`: resets every volatile
    /// register owned by `pid` to zero. Returns how many registers were
    /// wiped.
    ///
    /// Persistent registers — and other processes' volatile segments —
    /// are untouched, exactly the recoverable-ME contract: a restarting
    /// incarnation sees zeroed volatile memory and intact persistent
    /// memory.
    pub fn crash(&self, pid: ProcId) -> usize {
        let mut wiped = 0;
        for seg in self.segs.iter().filter(|s| s.owner == pid) {
            let mut dirty = seg.dirty.lock().unwrap();
            for &index in dirty.iter() {
                self.inner.write(index, 0);
                wiped += 1;
            }
            dirty.clear();
        }
        wiped
    }

    /// Total reads issued through this wrapper since construction (or the
    /// last [`DurableSpace::reset_counters`]).
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Total writes issued through this wrapper since construction (or
    /// the last [`DurableSpace::reset_counters`]).
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Reads + writes, the E21 passage-cost unit.
    pub fn accesses(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Zeroes both access counters (between bench phases).
    pub fn reset_counters(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }

    /// Records a write of `index` in its volatile segment, if any.
    fn mark_dirty(&self, index: u64) {
        if let Some(seg) = self.segs.iter().find(|s| s.range.contains(&index)) {
            seg.dirty.lock().unwrap().insert(index);
        }
    }
}

impl<S: RegisterSpace> RegisterSpace for DurableSpace<S> {
    fn read(&self, index: u64) -> u64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(index)
    }

    fn write(&self, index: u64, value: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.mark_dirty(index);
        self.inner.write(index, value);
    }

    /// Forwarded as one group; counted per cell. Every cell the group may
    /// write is dirty-marked before the group goes out, a conditional
    /// write's included, so a crash never misses a write that landed; a
    /// conditional write counts as a read, and as a write only if it
    /// wrote.
    fn access_all(&self, group: &mut [Access<'_>]) {
        for access in group.iter() {
            let cells = access.cells();
            match access {
                Access::ReadRun { out, .. } => {
                    self.reads.fetch_add(out.len() as u64, Ordering::Relaxed);
                }
                Access::WriteRun { values, .. } => {
                    self.writes
                        .fetch_add(values.len() as u64, Ordering::Relaxed);
                    cells.for_each(|index| self.mark_dirty(index));
                }
                Access::WriteIfUnset { .. } => {
                    self.reads.fetch_add(1, Ordering::Relaxed);
                    cells.for_each(|index| self.mark_dirty(index));
                }
            }
        }
        self.inner.access_all(group);
        for access in group.iter() {
            if let Access::WriteIfUnset { seen: 0, .. } = access {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn round_trips(&self) -> bool {
        self.inner.round_trips()
    }
}

/// Per-process incarnation (epoch) counters in persistent registers.
///
/// Incarnation `0` is the process's first life; every restart bumps the
/// counter. The epoch lives in a *persistent* register (`base + pid`), so
/// it survives the crash it is counting — which is the whole point: a
/// value [`stamp`]ed with an old epoch is recognizably stale once the
/// owner has restarted.
///
/// # Example
///
/// ```
/// use tfr_registers::durable::{split, stamp, Incarnations};
/// use tfr_registers::space::NativeSpace;
/// use tfr_registers::ProcId;
///
/// let space = std::sync::Arc::new(NativeSpace::new());
/// let inc = Incarnations::new(space, 0);
/// assert_eq!(inc.current(ProcId(2)), 0);
/// assert_eq!(inc.restart(ProcId(2)), 1);
///
/// // A register value written by incarnation 0 of p2:
/// let old = stamp(0, ProcId(2).token());
/// let (epoch, token) = split(old);
/// assert_eq!(token, ProcId(2).token());
/// assert!(epoch < inc.current(ProcId(2)), "stale: pre-crash incarnation");
/// ```
#[derive(Debug, Clone)]
pub struct Incarnations<S> {
    space: S,
    base: u64,
}

impl<S: RegisterSpace> Incarnations<S> {
    /// Stores process `p`'s epoch in register `base + p` of `space`.
    ///
    /// The registers must be persistent (not claimed by any
    /// [`DurableSpace::volatile`] segment) for the counter to mean
    /// anything.
    pub fn new(space: S, base: u64) -> Incarnations<S> {
        Incarnations { space, base }
    }

    /// The current incarnation of `pid` (0 = never crashed).
    pub fn current(&self, pid: ProcId) -> u64 {
        self.space.read(self.base + pid.0 as u64)
    }

    /// Records a restart of `pid`: bumps and returns its new epoch.
    ///
    /// Only `pid`'s own recovery code calls this (single writer per
    /// register), so read-then-write is atomic enough.
    pub fn restart(&self, pid: ProcId) -> u64 {
        let next = self.current(pid) + 1;
        self.space.write(self.base + pid.0 as u64, next);
        next
    }
}

/// Number of low bits [`stamp`] keeps for the payload value.
pub const STAMP_VALUE_BITS: u32 = 32;

/// Packs `(epoch, value)` into one register word: epoch in the high 32
/// bits, value in the low 32.
///
/// A register owner writes `stamp(my_epoch, payload)`; any reader can
/// [`split`] the word and compare the epoch against
/// [`Incarnations::current`] to detect a write left behind by a pre-crash
/// incarnation.
///
/// # Panics
///
/// Panics if either half exceeds 32 bits — lock tokens and realistic
/// restart counts are far below that.
pub fn stamp(epoch: u64, value: u64) -> u64 {
    assert!(epoch < (1 << STAMP_VALUE_BITS), "epoch overflows stamp");
    assert!(value < (1 << STAMP_VALUE_BITS), "value overflows stamp");
    (epoch << STAMP_VALUE_BITS) | value
}

/// Inverse of [`stamp`]: `(epoch, value)`.
pub fn split(word: u64) -> (u64, u64) {
    (
        word >> STAMP_VALUE_BITS,
        word & ((1 << STAMP_VALUE_BITS) - 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{NativeSpace, RegisterSpaceExt};
    use std::sync::Arc;

    #[test]
    fn persistent_registers_survive_a_crash() {
        let s = DurableSpace::new(NativeSpace::new()).volatile(ProcId(0), 10..20);
        s.write(0, 1);
        s.write(5, 2);
        s.crash(ProcId(0));
        assert_eq!(s.read(0), 1);
        assert_eq!(s.read(5), 2);
    }

    #[test]
    fn volatile_registers_reset_on_owner_crash_only() {
        let s = DurableSpace::new(NativeSpace::new())
            .volatile(ProcId(0), 10..20)
            .volatile(ProcId(1), 20..30);
        s.write(11, 7);
        s.write(21, 8);

        // p1's crash leaves p0's segment alone.
        assert_eq!(s.crash(ProcId(1)), 1);
        assert_eq!(s.read(11), 7);
        assert_eq!(s.read(21), 0);

        assert_eq!(s.crash(ProcId(0)), 1);
        assert_eq!(s.read(11), 0);
    }

    #[test]
    fn crash_is_idempotent_and_only_wipes_dirty_cells() {
        let s = DurableSpace::new(NativeSpace::new()).volatile(ProcId(0), 0..1000);
        s.write(3, 9);
        assert_eq!(s.crash(ProcId(0)), 1, "only the written cell is wiped");
        assert_eq!(s.crash(ProcId(0)), 0, "second crash finds nothing dirty");
        s.write(3, 10);
        assert_eq!(s.crash(ProcId(0)), 1, "re-dirtied after rejoin");
    }

    #[test]
    fn access_counters_track_reads_and_writes() {
        let s = DurableSpace::new(NativeSpace::new());
        s.write(0, 1);
        s.write(1, 2);
        let _ = s.read(0);
        assert_eq!((s.reads(), s.writes()), (1, 2));
        assert_eq!(s.accesses(), 3);
        s.reset_counters();
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn round_trips_are_the_inner_spaces() {
        /// Shared memory that claims to be remote.
        struct Remote(NativeSpace);
        impl RegisterSpace for Remote {
            fn read(&self, index: u64) -> u64 {
                self.0.read(index)
            }
            fn write(&self, index: u64, value: u64) {
                self.0.write(index, value)
            }
            fn round_trips(&self) -> bool {
                true
            }
        }
        assert!(DurableSpace::new(Remote(NativeSpace::new())).round_trips());
        assert!(!DurableSpace::new(NativeSpace::new()).round_trips());
    }

    #[test]
    fn a_conditional_write_counts_a_read_and_a_write_only_if_it_wrote() {
        let s = DurableSpace::new(NativeSpace::new()).volatile(ProcId(0), 10..20);
        assert_eq!(s.write_if_unset(12, 5, &mut || ()), 0);
        assert_eq!(s.write_if_unset(12, 6, &mut || ()), 5);
        assert_eq!((s.reads(), s.writes()), (2, 1));
        assert_eq!(s.crash(ProcId(0)), 1, "the written cell is dirty");
        assert_eq!(s.read(12), 0);
    }

    #[test]
    fn runs_count_and_dirty_per_cell() {
        let s = DurableSpace::new(NativeSpace::new()).volatile(ProcId(0), 10..20);
        s.write_run(8, 2, &[1, 2, 3, 4]); // 8 persistent; 10, 12, 14 volatile
        let mut out = [0; 4];
        s.read_run(8, 2, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        assert_eq!((s.reads(), s.writes()), (4, 4));
        assert_eq!(
            s.crash(ProcId(0)),
            3,
            "each volatile cell of the run is dirty"
        );
        assert_eq!([s.read(8), s.read(10), s.read(14)], [1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_volatile_segments_are_rejected() {
        let _ = DurableSpace::new(NativeSpace::new())
            .volatile(ProcId(0), 0..10)
            .volatile(ProcId(1), 5..15);
    }

    #[test]
    fn incarnations_start_at_zero_and_count_restarts() {
        let space = Arc::new(NativeSpace::new());
        let inc = Incarnations::new(space, 100);
        assert_eq!(inc.current(ProcId(0)), 0);
        assert_eq!(inc.restart(ProcId(0)), 1);
        assert_eq!(inc.restart(ProcId(0)), 2);
        assert_eq!(inc.current(ProcId(0)), 2);
        assert_eq!(inc.current(ProcId(1)), 0, "per process");
    }

    #[test]
    fn incarnations_survive_volatile_wipes() {
        let space = Arc::new(DurableSpace::new(NativeSpace::new()).volatile(ProcId(0), 0..50));
        let inc = Incarnations::new(space.clone(), 100); // persistent region
        inc.restart(ProcId(0));
        space.crash(ProcId(0));
        assert_eq!(inc.current(ProcId(0)), 1, "epoch is persistent");
    }

    #[test]
    fn stamp_round_trips_and_detects_staleness() {
        let word = stamp(3, ProcId(4).token());
        assert_eq!(split(word), (3, ProcId(4).token()));
        assert_eq!(split(0), (0, 0), "zero register splits to epoch 0, free");

        let space = Arc::new(NativeSpace::new());
        let inc = Incarnations::new(space, 0);
        let old = stamp(inc.current(ProcId(0)), ProcId(0).token());
        inc.restart(ProcId(0));
        let (epoch, _) = split(old);
        assert!(epoch < inc.current(ProcId(0)));
    }

    #[test]
    #[should_panic(expected = "overflows stamp")]
    fn stamp_rejects_oversized_values() {
        let _ = stamp(0, 1 << 32);
    }
}
