//! Event schedulers for the discrete-event engine.
//!
//! The driver needs one operation at scale: "pop the earliest pending
//! completion event". A [`std::collections::BinaryHeap`] pays O(log n) per
//! event; at 10^5–10^6 processes that log factor (and its cache misses)
//! dominates the run. This module puts the queue behind the [`Scheduler`]
//! trait with two implementations:
//!
//! * [`HeapScheduler`] — the original binary heap, kept as the *reference
//!   implementation*. Obviously correct, used as the oracle by the
//!   differential test tier (`tests/sim_scale_integration.rs`).
//! * [`TimerWheel`] — a hierarchical timer wheel ([`LEVELS`] levels of
//!   [`SLOTS`] slots, each level covering 64× the span of the one below,
//!   plus a `BTreeMap` overflow for events beyond the 2^36-tick horizon).
//!   Insert and pop are O(1) amortized: an event is filed into the lowest
//!   level whose *page* (its time shifted right by the level's span bits)
//!   matches the cursor's page, and cascades down at most `LEVELS - 1`
//!   times as the cursor approaches it. Occupied slots are tracked in a
//!   per-level `u64` bitmap so finding the next slot is one mask and a
//!   `trailing_zeros`.
//!
//! The engine runs on the wheel unless handed the heap by type
//! ([`crate::Sim::run_on`]).
//!
//! # Determinism contract
//!
//! Both schedulers pop events in strictly ascending `(time, insertion
//! order)`: each `schedule` stamps a sequence number that breaks ties at
//! the same instant. Since the driver issues at most one outstanding event
//! per process and issues them in pid order at every instant, same-instant
//! ties resolve to issue order (initially pid order) — **exactly** the
//! order the original `BinaryHeap<Reverse<(Ticks, seq, pid)>>` produced.
//! This is what makes wheel-vs-heap runs bit-identical, which the 256-seed
//! differential battery asserts.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use tfr_registers::Ticks;

/// Bits per wheel level (64 slots).
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; level `l` slots span `64^l` ticks, so the wheel
/// covers `64^LEVELS = 2^36` ticks ahead of the cursor before the overflow
/// map takes over.
pub const LEVELS: usize = 6;
/// Shift that yields an instant's top-level page; events whose top page
/// differs from the cursor's live in the overflow map.
const TOP_SHIFT: u32 = SLOT_BITS * LEVELS as u32;

/// A popped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The instant the event fires.
    pub time: Ticks,
    /// The payload: the process whose action completes.
    pub pid: usize,
}

/// A pending-event queue with deterministic ordering.
///
/// Implementations MUST pop events in ascending `(time, insertion order)`,
/// so two schedulers fed the same `schedule`/`pop` sequence produce
/// identical pop streams — the property the differential tests pin down.
pub trait Scheduler {
    /// Schedules an event at `time` (clamped to the current instant if it
    /// lies in the past).
    fn schedule(&mut self, time: Ticks, pid: usize);

    /// Removes and returns the earliest pending event.
    fn pop(&mut self) -> Option<Event>;

    /// The pid of the next event `pop` would return, when that is known
    /// without doing any work. Purely a prefetch hint for the driver —
    /// `None` is always a correct answer.
    fn peek_pid(&self) -> Option<usize>;
}

/// The original `BinaryHeap` scheduler — the reference implementation.
#[derive(Debug, Default)]
pub struct HeapScheduler {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    next_seq: u64,
    now: u64,
}

impl HeapScheduler {
    /// Creates an empty scheduler with the clock at 0.
    pub fn new() -> HeapScheduler {
        HeapScheduler::default()
    }
}

impl Scheduler for HeapScheduler {
    fn schedule(&mut self, time: Ticks, pid: usize) {
        let t = time.0.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((t, seq, pid)));
    }

    fn pop(&mut self) -> Option<Event> {
        let Reverse((t, _, pid)) = self.heap.pop()?;
        self.now = t;
        Some(Event {
            time: Ticks(t),
            pid,
        })
    }

    fn peek_pid(&self) -> Option<usize> {
        self.heap.peek().map(|Reverse((_, _, pid))| *pid)
    }
}

/// Hierarchical timer wheel with O(1) amortized insert/pop.
///
/// # Structure
///
/// The cursor `current` is the instant of the most recently popped event.
/// An event at instant `t` is filed into the lowest level `l` whose page
/// matches the cursor's: `t >> 6(l+1) == current >> 6(l+1)`, at slot
/// `(t >> 6l) & 63`. Level-0 slots therefore hold a single exact instant;
/// higher-level slots hold a `64^l`-tick span that is *cascaded* (re-filed
/// one or more levels down) when the cursor reaches it. Events beyond the
/// top-level page (≥ 2^36 ticks ahead) wait in a `BTreeMap` keyed by
/// instant and are pulled into the wheel once the cursor's top page
/// catches up.
///
/// # Invariants (checked by the seeded unit tests below)
///
/// * Every stored event satisfies `t >= current`, and at level `l` shares
///   the cursor's level-`l` page — so slot indices at or above the
///   cursor's index at that level are the only occupied ones, and a
///   single `occupancy & (!0 << cursor_idx)` mask finds the next slot.
/// * Events at level `l` fire strictly after every event at levels
///   `< l`, and overflow events fire strictly after every wheel event —
///   so scanning levels bottom-up yields the global minimum.
/// * A level-0 slot is drained into the `ready` batch sorted by insertion
///   sequence, so same-instant events pop in insertion order no matter how
///   cascading interleaved them.
#[derive(Debug)]
pub struct TimerWheel {
    /// `LEVELS × SLOTS` buckets of `(time, seq, pid)`.
    slots: Vec<Vec<(u64, u64, usize)>>,
    /// Per-level bitmap of non-empty slots.
    occupancy: [u64; LEVELS],
    /// Events beyond the wheel horizon, keyed by instant.
    overflow: BTreeMap<u64, Vec<(u64, usize)>>,
    /// Same-instant batch being popped, sorted *descending* by seq so
    /// `Vec::pop` yields ascending insertion order without shifting.
    ready: Vec<(u64, usize)>,
    /// The instant of every event in `ready`.
    ready_time: u64,
    /// Cursor: instant of the most recently popped/drained event.
    current: u64,
    next_seq: u64,
    /// Events scheduled and not yet popped.
    live: usize,
    /// Capacity-recycling buffer for cascading span slots: drained slots
    /// swap their storage with this instead of freeing it, so the steady
    /// state allocates nothing.
    scratch: Vec<(u64, u64, usize)>,
}

impl Default for TimerWheel {
    fn default() -> TimerWheel {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            overflow: BTreeMap::new(),
            ready: Vec::new(),
            ready_time: 0,
            current: 0,
            next_seq: 0,
            live: 0,
            scratch: Vec::new(),
        }
    }
}

impl TimerWheel {
    /// Creates an empty wheel with the cursor at instant 0.
    pub fn new() -> TimerWheel {
        TimerWheel::default()
    }

    /// Files an event into the lowest page-matching level, or overflow.
    fn file(&mut self, t: u64, seq: u64, pid: usize) {
        debug_assert!(t >= self.current, "events are never filed in the past");
        // The lowest level whose page holds both `t` and the cursor is
        // read off the highest differing bit: pages of shift `s` agree
        // exactly when every bit ≥ s agrees, so the level is
        // `highest_diff_bit / SLOT_BITS` — one xor and a leading_zeros
        // instead of a per-level scan.
        let diff = t ^ self.current;
        let lvl = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        if lvl >= LEVELS {
            self.overflow.entry(t).or_default().push((seq, pid));
            return;
        }
        let idx = ((t >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[lvl * SLOTS + idx].push((t, seq, pid));
        self.occupancy[lvl] |= 1 << idx;
    }

    /// Advances the cursor to the next occupied instant and drains it into
    /// `ready`. Caller guarantees at least one event is stored.
    fn advance(&mut self) {
        loop {
            // Overflow entries whose top page the cursor has reached now
            // fit the wheel: pull them in (each event overflows at most
            // once, so this amortizes to O(1)).
            while let Some((&t, _)) = self.overflow.first_key_value() {
                if t >> TOP_SHIFT != self.current >> TOP_SHIFT {
                    break;
                }
                let (t, entries) = self.overflow.pop_first().expect("checked nonempty");
                for (seq, pid) in entries {
                    self.file(t, seq, pid);
                }
            }

            let mut cascaded = false;
            for lvl in 0..LEVELS as u32 {
                let cur_idx = (self.current >> (SLOT_BITS * lvl)) & (SLOTS as u64 - 1);
                let masked = self.occupancy[lvl as usize] & (!0u64 << cur_idx);
                debug_assert_eq!(
                    masked, self.occupancy[lvl as usize],
                    "no slot below the cursor index is ever occupied"
                );
                if masked == 0 {
                    continue;
                }
                let idx = masked.trailing_zeros() as u64;
                let slot = &mut self.slots[lvl as usize * SLOTS + idx as usize];
                self.occupancy[lvl as usize] &= !(1u64 << idx);
                if lvl == 0 {
                    // An exact instant: emit it as the ready batch, in
                    // insertion order regardless of cascade interleaving.
                    // Sorted descending so `pop` (from the back) yields
                    // ascending seq; the slot keeps its capacity.
                    let t = slot[0].0;
                    debug_assert!(slot.iter().all(|e| e.0 == t));
                    debug_assert!(self.ready.is_empty());
                    self.ready.clear();
                    self.ready
                        .extend(slot.iter().rev().map(|&(_, seq, pid)| (seq, pid)));
                    slot.clear();
                    // Slots almost always fill in ascending seq order
                    // (direct inserts and cascades both append in pop
                    // order), so the reversed batch is already sorted;
                    // pay the sort only when cascading interleaved it.
                    if !self.ready.is_sorted_by(|a, b| a >= b) {
                        self.ready.sort_unstable_by(|a, b| b.cmp(a));
                    }
                    self.current = t;
                    self.ready_time = t;
                    return;
                }
                // A span: nothing pends before it (all lower levels were
                // empty), so jump the cursor to its start and re-file its
                // events — they now land at least one level lower. The
                // drained slot swaps storage with the scratch buffer, so
                // neither ever gives its capacity back.
                std::mem::swap(&mut self.scratch, slot);
                let page_shift = SLOT_BITS * (lvl + 1);
                let span_start =
                    ((self.current >> page_shift) << page_shift) | (idx << (SLOT_BITS * lvl));
                self.current = span_start;
                let mut batch = std::mem::take(&mut self.scratch);
                for &(t, seq, pid) in &batch {
                    self.file(t, seq, pid);
                }
                batch.clear();
                self.scratch = batch;
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Wheel empty: jump the cursor straight to the first overflow
            // instant; the pull at the top of the loop files it.
            let (&t, _) = self
                .overflow
                .first_key_value()
                .expect("advance called with events stored");
            self.current = t;
        }
    }
}

impl Scheduler for TimerWheel {
    fn schedule(&mut self, time: Ticks, pid: usize) {
        let t = time.0.max(self.current);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.file(t, seq, pid);
    }

    fn pop(&mut self) -> Option<Event> {
        loop {
            if let Some((_, pid)) = self.ready.pop() {
                self.live -= 1;
                return Some(Event {
                    time: Ticks(self.ready_time),
                    pid,
                });
            }
            if self.live == 0 {
                return None;
            }
            self.advance();
        }
    }

    fn peek_pid(&self) -> Option<usize> {
        // `ready` is popped from the back; an empty batch would need an
        // `advance` to know, which a hint is not worth.
        self.ready.last().map(|&(_, pid)| pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::rng::SplitMix64;

    fn drain(s: &mut impl Scheduler) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        while let Some(e) = s.pop() {
            out.push((e.time.0, e.pid));
        }
        out
    }

    /// Same-instant bursts at instants straddling level boundaries
    /// (64-, 4096- and 262144-tick pages) pop in (time, insertion) order
    /// even though cascading re-files them out of insertion order. Seeded
    /// shuffle so a failure replays exactly.
    #[test]
    fn same_instant_bursts_across_level_boundaries() {
        let mut rng = SplitMix64::new(0x5c4e_d001);
        // Instants hugging the page boundaries of levels 0..3.
        let mut instants: Vec<u64> = Vec::new();
        for boundary in [64u64, 64 * 64, 64 * 64 * 64] {
            for t in [boundary - 2, boundary - 1, boundary, boundary + 1] {
                for _ in 0..3 {
                    instants.push(t); // a same-instant burst of 3
                }
            }
        }
        // Seeded shuffle.
        for i in (1..instants.len()).rev() {
            let j = rng.random_range(0..=i as u64) as usize;
            instants.swap(i, j);
        }
        let mut wheel = TimerWheel::new();
        let mut heap = HeapScheduler::new();
        // pid = insertion index, so (time, pid) order is (time, insertion).
        for (pid, &t) in instants.iter().enumerate() {
            wheel.schedule(Ticks(t), pid);
            heap.schedule(Ticks(t), pid);
        }
        let got = drain(&mut wheel);
        let oracle = drain(&mut heap);
        assert_eq!(got, oracle);
        assert_eq!(got.len(), instants.len());
        assert!(got.is_sorted(), "pop order is ascending (time, insertion)");
        assert_eq!((wheel.pop(), heap.pop()), (None, None));
    }

    /// Events beyond the 2^36-tick wheel horizon wait in overflow and
    /// still pop in global order, interleaved with near events scheduled
    /// both before and after them.
    #[test]
    fn far_future_events_beyond_outer_horizon() {
        let mut wheel = TimerWheel::new();
        let mut heap = HeapScheduler::new();
        let times = [
            1u64 << 40,
            5,
            (1 << 36) + 17, // just past the initial horizon
            1 << 60,
            (1 << 36) - 1, // last in-wheel instant
            1 << 40,       // same far instant twice: insertion order decides
            123,
        ];
        for (pid, &t) in times.iter().enumerate() {
            wheel.schedule(Ticks(t), pid);
            heap.schedule(Ticks(t), pid);
        }
        assert_eq!(drain(&mut wheel), drain(&mut heap));
    }

    /// Popping an empty wheel returns None without advancing; a single
    /// far-future event then forces a cascade through entirely empty
    /// levels (and the overflow jump) and still comes out exact.
    #[test]
    fn empty_wheel_cascade() {
        let mut wheel = TimerWheel::new();
        assert_eq!(wheel.pop(), None);
        assert_eq!(wheel.pop(), None, "pop on empty is repeatable");
        wheel.schedule(Ticks((1 << 45) + 3), 9);
        assert_eq!(
            wheel.pop(),
            Some(Event {
                time: Ticks((1 << 45) + 3),
                pid: 9
            })
        );
        assert_eq!(wheel.pop(), None);
        // The cursor moved; scheduling "in the past" clamps to it.
        wheel.schedule(Ticks(0), 4);
        let e = wheel.pop().expect("clamped event pops");
        assert_eq!((e.time, e.pid), (Ticks((1 << 45) + 3), 4));
    }

    /// 64-seed differential battery at the scheduler level: random
    /// interleavings of schedule / pop (with times spanning all levels and
    /// the overflow) produce identical pop streams on both
    /// implementations.
    #[test]
    fn seeded_wheel_heap_differential() {
        for case in 0..64u64 {
            let mut rng = SplitMix64::new(0x5c4e_d100 ^ (case << 20));
            let mut wheel = TimerWheel::new();
            let mut heap = HeapScheduler::new();
            let mut now = 0u64;
            for step in 0..400 {
                match rng.random_range(0..=9) {
                    // Mostly schedule: offsets weighted across all scales.
                    0..=5 => {
                        let offset = match rng.random_range(0..=3) {
                            0 => rng.random_range(0..=63),
                            1 => rng.random_range(0..=4095),
                            2 => rng.random_range(0..=(1 << 30)),
                            _ => rng.random_range(0..=(1 << 45)),
                        };
                        let t = Ticks(now + offset);
                        wheel.schedule(t, step);
                        heap.schedule(t, step);
                    }
                    _ => {
                        let got = wheel.pop();
                        assert_eq!(got, heap.pop(), "case {case} step {step}");
                        if let Some(e) = got {
                            now = e.time.0;
                        }
                    }
                }
            }
            assert_eq!(drain(&mut wheel), drain(&mut heap), "case {case} drain");
        }
    }
}
