//! Building blocks for the *native form* of the algorithms: real
//! `std::sync::atomic` registers on real threads.
//!
//! The paper's Algorithm 1 uses the infinite register arrays
//! `x[1..∞, 0..1]` and `y[1..∞]`; a native implementation needs an array of
//! atomics that can grow without ever making a reader wait or moving
//! existing elements (a relocated atomic would not be a register).
//! [`UnboundedAtomicArray`] provides that: a chunked, append-only array
//! under a lock-free, two-level directory.
//!
//! # The directory
//!
//! Register `i` lives in chunk `c = i / CHUNK_LEN`. Chunks are found
//! through a fixed top-level array of *buckets* of geometrically growing
//! size — bucket `b` holds the chunk ids `2^b − 1 .. 2^(b+1) − 1`, so
//! `b = ⌊log2(c + 1)⌋` — and each bucket is a boxed slice of chunk slots.
//! Buckets and chunks are published lazily, at most once, and are never
//! moved, replaced or freed before the array is dropped. A store at a
//! huge index therefore backs its own chunk and its bucket's slots (24
//! bytes per chunk id, at most twice the touched id range), never the
//! chunks below it.
//!
//! **What an access costs.** A load is two dependent loads — the bucket's
//! slice pointer from the top-level array, the chunk pointer from the
//! bucket — and then the `SeqCst` load of the cell; it returns 0 at the
//! first level it finds unpublished. It performs *no store to shared
//! memory* (no lock word, no reference count), so readers share every
//! line they touch, and it has no loop and waits for nothing: its step
//! count is a constant, whatever other threads do, including a thread
//! halted halfway through a publication. That is the register the paper
//! assumes — one access, bounded by Δ — and what Theorem 2.4's
//! wait-freedom needs from the substrate. A store to a published chunk
//! walks the same two levels and does the `SeqCst` store. Only the first
//! store into a fresh chunk does more: it allocates the missing bucket
//! or chunk and publishes it; of several racing publishers one wins and
//! the others drop their allocation and use the winner's (a loser may
//! wait for the winner to finish moving one pointer into place, nothing
//! longer — allocation happens before the race).
//!
//! **Why a missed lookup is still atomic.** The cells are `SeqCst`, but a
//! load that finds its chunk unpublished never reaches a cell, so the
//! directory itself must not let it slip out of the sequentially
//! consistent order: with `x` and `y` in two fresh chunks,
//! `x := 1; read y` ‖ `y := 1; read x` must not yield 0/0 (Fischer,
//! Algorithm 1 and the bakery family are all built from that shape).
//! An `Acquire` look at the directory does not give this — in the
//! language's memory model it is ordered against nothing the other
//! thread did, and a `SeqCst` fence on the miss path orders it only
//! against a publisher that fenced too, not against a third thread that
//! merely found the chunk published. So every slot carries a `SeqCst`
//! flag `ready` beside its value, and:
//!
//! * a writer executes, before its cell store `W`, a `SeqCst` operation
//!   `Q` on the slot's `ready` that reads or writes `true`;
//! * a reader that misses returns 0 only after a `SeqCst` load `R` of
//!   `ready` that read `false`.
//!
//! `R`, `Q`, and all cell accesses are `SeqCst`, hence in the single
//! total order *S*, which agrees with each thread's program order. `R`
//! read `false`, so it precedes in *S* the first store of `true`, which
//! precedes or is `Q`, which precedes `W`: a missed load precedes in *S*
//! every store to any cell of its chunk, and 0 — the initial value — is
//! exactly what a read at that position returns. Loads that *find* the
//! chunk (an `Acquire` look suffices for a hit: it makes the zeroed
//! cells visible) read the cell with `SeqCst` and sit in *S* on their
//! own. So all loads and stores of the array are totally ordered
//! consistently with program order and with what each load returned,
//! which is the atomic-register contract. On x86-64 a `ready` load is a
//! plain `mov` of the byte beside the pointer the lookup reads anyway.
//!
//! [`precise_delay`] implements the `delay(d)` statement for native runs: a
//! hybrid sleep/spin wait that does not return before the deadline.
//!
//! Both primitives carry [`crate::chaos`] injection points
//! ([`crate::chaos::points::ARRAY_LOAD`], [`ARRAY_STORE`][apt],
//! [`DELAY`][dpt]), so the chaos harness can stall or crash-stop a thread
//! at any shared-memory access of the native stack. The points fire
//! before the directory is touched and nothing in this module is held
//! across one, so a crash-unwound thread leaves nothing behind.
//!
//! [apt]: crate::chaos::points::ARRAY_STORE
//! [dpt]: crate::chaos::points::DELAY

use crate::chaos;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Number of registers per chunk (must be a power of two).
const CHUNK_LEN: usize = 1024;

/// Number of buckets: enough for every chunk id a `usize` index can name.
const BUCKETS: usize = (usize::MAX / CHUNK_LEN).ilog2() as usize + 2;

/// A chunk's cells, 7 more than it backs: its cell 0 is the first cell
/// that starts a 64-byte cache line, so a cell index that is a multiple
/// of 8 starts a line, and a layout that keeps each writer to its own
/// 8-cell blocks shares no line between writers.
type Chunk = Box<[AtomicU64; CHUNK_LEN + 7]>;
type Bucket = Box<[Published<Chunk>]>;

fn new_chunk() -> Chunk {
    let cells: Box<[AtomicU64]> = (0..CHUNK_LEN + 7).map(|_| AtomicU64::new(0)).collect();
    cells.try_into().expect("collected CHUNK_LEN + 7 cells")
}

/// The cell of `chunk` that backs `index`, counted from the chunk's first
/// line boundary (its allocation is 8-byte aligned).
#[inline(always)]
fn cell(chunk: &[AtomicU64; CHUNK_LEN + 7], index: usize) -> &AtomicU64 {
    let skip = (chunk.as_ptr() as usize).wrapping_neg() % 64 / 8;
    &chunk[skip + index % CHUNK_LEN]
}

/// The slots of bucket `b`, all unpublished.
fn new_bucket(b: usize) -> Bucket {
    (0..1usize << b).map(|_| Published::empty()).collect()
}

/// Where `index`'s chunk sits in the directory: `(bucket, slot in it)`.
fn locate(index: usize) -> (usize, usize) {
    let n = index / CHUNK_LEN + 1;
    let b = n.ilog2() as usize;
    (b, n - (1 << b))
}

/// A directory slot: a value published at most once and then immutable,
/// whose *absence* is observed in `SeqCst` order (see the module docs).
///
/// Invariant: `ready` is stored `true` only after `value` is set.
struct Published<T> {
    ready: AtomicBool,
    value: OnceLock<T>,
}

// The directory's cost per chunk id, as the module docs state it.
const _: () = assert!(std::mem::size_of::<Published<Chunk>>() <= 24);

impl<T> Published<T> {
    const fn empty() -> Published<T> {
        Published {
            ready: AtomicBool::new(false),
            value: OnceLock::new(),
        }
    }

    /// The value, or `None` if — in `SeqCst` order — no writer has got
    /// past this slot yet. Never waits: `OnceLock::get` is one load.
    fn get(&self) -> Option<&T> {
        match self.value.get() {
            Some(value) => Some(value),
            None if self.ready.load(Ordering::SeqCst) => self.value.get(),
            None => None,
        }
    }

    /// The value, publishing `make()` if there is none. Losers of a
    /// publication race drop what they made and use the winner's.
    fn get_or_publish(&self, make: impl FnOnce() -> T) -> &T {
        if !self.ready.load(Ordering::SeqCst) {
            // Made before the race, so the cell is claimed only for the
            // move of one pointer. `Err` is the loser's own value back.
            let _ = self.value.set(make());
            self.ready.store(true, Ordering::SeqCst);
        }
        self.value
            .get()
            .expect("`ready` is stored only after the value is set")
    }
}

/// An unbounded array of atomic `u64` registers, all zero-initialized.
///
/// * `load(i)` on a cell that was never stored to returns 0 without
///   allocating.
/// * `store(i, v)` allocates the containing chunk on demand — and *only*
///   that chunk: the directory is sparse, so a store at a huge index
///   costs one chunk plus directory slots, never every chunk below it.
///   Strided layouts (the sharded service tiles one space into
///   interleaved shard/slot regions) depend on this: their touched
///   indices are sparse in a vast index range, and memory must follow
///   what is touched, not the maximum index.
/// * Cells never move once allocated, so loads and stores are genuine
///   single-register atomic operations (`SeqCst`, matching the atomic
///   register model).
/// * A load takes no lock and writes nothing shared: two dependent
///   directory loads, then the cell (see the [module docs](self) for the
///   directory and why it keeps the array linearizable).
///
/// # Example
///
/// ```
/// use tfr_registers::native::UnboundedAtomicArray;
///
/// let arr = UnboundedAtomicArray::new();
/// assert_eq!(arr.load(1_000_000), 0);
/// arr.store(1_000_000, 7);
/// assert_eq!(arr.load(1_000_000), 7);
/// ```
pub struct UnboundedAtomicArray {
    /// Bucket `b` holds the slots of chunk ids `2^b − 1 .. 2^(b+1) − 1`.
    buckets: [Published<Bucket>; BUCKETS],
}

impl UnboundedAtomicArray {
    /// Creates an empty array (no chunks allocated).
    pub fn new() -> UnboundedAtomicArray {
        UnboundedAtomicArray {
            buckets: [const { Published::empty() }; BUCKETS],
        }
    }

    /// Creates an array with the first `n` registers backed, so their
    /// first accesses allocate and publish nothing.
    pub fn with_capacity(n: usize) -> UnboundedAtomicArray {
        let arr = UnboundedAtomicArray::new();
        for chunk in 0..n.div_ceil(CHUNK_LEN) {
            arr.chunk_or_publish(chunk * CHUNK_LEN);
        }
        arr
    }

    /// The chunk backing `index`, if published.
    fn chunk_of(&self, index: usize) -> Option<&[AtomicU64; CHUNK_LEN + 7]> {
        let (b, slot) = locate(index);
        Some(self.buckets[b].get()?[slot].get()?)
    }

    /// The chunk backing `index`, published now if it was not.
    fn chunk_or_publish(&self, index: usize) -> &[AtomicU64; CHUNK_LEN + 7] {
        let (b, slot) = locate(index);
        let bucket = self.buckets[b].get_or_publish(|| new_bucket(b));
        bucket[slot].get_or_publish(new_chunk)
    }

    /// Atomically reads register `index` (0 if never stored).
    pub fn load(&self, index: usize) -> u64 {
        chaos::point(chaos::points::ARRAY_LOAD);
        self.load_quiet(index)
    }

    /// Atomically writes `value` to register `index`, allocating its chunk
    /// if needed.
    pub fn store(&self, index: usize, value: u64) {
        chaos::point(chaos::points::ARRAY_STORE);
        self.store_quiet(index, value);
    }

    /// [`UnboundedAtomicArray::load`] without the chaos injection point.
    ///
    /// Backend-neutral algorithms fire their own points at the algorithm
    /// layer (a quorum backend has no array access to instrument, so the
    /// points must live above the [`crate::space::RegisterSpace`] seam);
    /// [`crate::space::NativeSpace`] therefore uses the quiet accessors.
    pub fn load_quiet(&self, index: usize) -> u64 {
        match self.chunk_of(index) {
            Some(chunk) => cell(chunk, index).load(Ordering::SeqCst),
            None => 0,
        }
    }

    /// [`UnboundedAtomicArray::store`] without the chaos injection point
    /// (see [`UnboundedAtomicArray::load_quiet`]).
    pub fn store_quiet(&self, index: usize, value: u64) {
        cell(self.chunk_or_publish(index), index).store(value, Ordering::SeqCst);
    }

    /// Number of registers currently backed by allocated chunks
    /// (unpublished directory slots are not counted — they back nothing).
    /// Walks the published buckets; takes no lock.
    pub fn capacity(&self) -> usize {
        self.buckets
            .iter()
            .filter_map(Published::get)
            .flat_map(|bucket| bucket.iter())
            .filter(|slot| slot.get().is_some())
            .count()
            * CHUNK_LEN
    }

    /// The stable address of the cell backing `index`, if its chunk is
    /// allocated. A register that moved would not be a register: this is
    /// the observable contract the growth path must preserve, and the
    /// stress tests pin it down.
    pub fn cell_addr(&self, index: usize) -> Option<*const AtomicU64> {
        self.chunk_of(index)
            .map(|chunk| cell(chunk, index) as *const AtomicU64)
    }
}

impl Default for UnboundedAtomicArray {
    fn default() -> Self {
        UnboundedAtomicArray::new()
    }
}

impl std::fmt::Debug for UnboundedAtomicArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnboundedAtomicArray")
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// Executes the paper's `delay(d)` statement on a real thread: returns no
/// earlier than `d` after the call.
///
/// For sub-millisecond delays this spins (with [`std::hint::spin_loop`]) so
/// the overshoot stays small; longer delays sleep for the bulk of the wait
/// and spin only the final stretch. Overshoot is harmless in the paper's
/// model (`delay(d)` waits *at least* `d`); undershoot would be a
/// correctness bug for timing-based algorithms, hence the explicit deadline
/// check. Delays too large to express as a deadline (`now + d` overflows
/// `Instant`) sleep in bounded slices instead — they still never return
/// early.
pub fn precise_delay(d: Duration) {
    chaos::point(chaos::points::DELAY);
    if d.is_zero() {
        return;
    }
    let Some(deadline) = Instant::now().checked_add(d) else {
        // Absurdly large delay: no representable deadline. Sleep in slices;
        // each iteration re-checks so the total wait is still ≥ d.
        let mut remaining = d;
        while !remaining.is_zero() {
            let slice = remaining.min(Duration::from_secs(3600));
            let start = Instant::now();
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(start.elapsed());
        }
        return;
    };
    precise_wait_until(deadline);
}

/// Returns no earlier than `deadline`: [`precise_delay`]'s wait, without
/// its injection point, for a caller that has fired the point itself when
/// its delay began (a service worker waiting out the delays of several
/// shards at once).
pub fn precise_wait_until(deadline: Instant) {
    // Sleep for the coarse part, leaving a spin margin for timer slop.
    const SPIN_MARGIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > SPIN_MARGIN {
            std::thread::sleep(remaining - SPIN_MARGIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cells_read_zero() {
        let arr = UnboundedAtomicArray::new();
        assert_eq!(arr.load(0), 0);
        assert_eq!(arr.load(12345678), 0);
        assert_eq!(arr.capacity(), 0, "loads must not allocate");
        assert!(arr.cell_addr(0).is_none(), "no chunk, no address");
    }

    /// Bucket `b` holds chunk ids `2^b − 1 .. 2^(b+1) − 1`, and the last
    /// index a `usize` can name still lands inside the top-level array.
    #[test]
    fn directory_geometry() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(CHUNK_LEN - 1), (0, 0));
        assert_eq!(locate(CHUNK_LEN), (1, 0));
        assert_eq!(locate(3 * CHUNK_LEN - 1), (1, 1));
        assert_eq!(locate(3 * CHUNK_LEN), (2, 0));
        assert_eq!(locate(40_000_000), (15, 39_062 + 1 - (1 << 15)));
        assert_eq!(locate(usize::MAX), (BUCKETS - 1, 0));
        let arr = UnboundedAtomicArray::new();
        assert_eq!(arr.load(usize::MAX), 0);
        assert_eq!(arr.capacity(), 0);
    }

    #[test]
    fn store_then_load() {
        let arr = UnboundedAtomicArray::new();
        arr.store(5, 42);
        arr.store(5000, 43);
        assert_eq!(arr.load(5), 42);
        assert_eq!(arr.load(5000), 43);
        assert_eq!(arr.load(4), 0);
    }

    /// A chunk starts a cache line, whether a store or `with_capacity`
    /// published it, so cell `8k` does too and cells `8k..8k + 8` share
    /// one line: the unit a layout keeps to one writer.
    #[test]
    fn a_fresh_chunks_first_cell_starts_a_cache_line() {
        let arr = UnboundedAtomicArray::with_capacity(CHUNK_LEN);
        for chunk in [1, 2, 7, 39_062] {
            arr.store(chunk * CHUNK_LEN + 5, 1);
        }
        for chunk in [0, 1, 2, 7, 39_062] {
            let first = chunk * CHUNK_LEN;
            let addr = |i: usize| arr.cell_addr(i).expect("published") as usize;
            assert_eq!(addr(first) % 64, 0, "chunk {chunk}");
            assert_eq!(
                addr(first + 8) - addr(first),
                64,
                "chunk {chunk}: 8 cells a line"
            );
            assert_eq!(
                addr(first + CHUNK_LEN - 1) - addr(first),
                8 * (CHUNK_LEN - 1)
            );
        }
    }

    #[test]
    fn with_capacity_preallocates() {
        let arr = UnboundedAtomicArray::with_capacity(3000);
        assert!(arr.capacity() >= 3000);
    }

    /// A store at a huge index must allocate only its own chunk: strided
    /// register layouts (shard tiling, slot interleaving) touch sparse
    /// indices across a vast range, and memory has to track what is
    /// touched rather than the maximum index.
    #[test]
    fn high_index_store_allocates_sparsely() {
        let arr = UnboundedAtomicArray::new();
        arr.store(40_000_000, 7);
        arr.store(3, 9);
        assert_eq!(arr.load(40_000_000), 7);
        assert_eq!(arr.load(3), 9);
        assert_eq!(
            arr.capacity(),
            2 * CHUNK_LEN,
            "exactly the two touched chunks are backed"
        );
        // Untouched cells in between still read zero without allocating.
        assert_eq!(arr.load(20_000_000), 0);
        assert_eq!(arr.capacity(), 2 * CHUNK_LEN);
    }

    #[test]
    fn concurrent_growth_and_access() {
        let arr = UnboundedAtomicArray::new();
        let threads = 8;
        let per_thread = 2000usize;
        std::thread::scope(|s| {
            for t in 0..threads {
                let arr = &arr;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let idx = i * threads + t;
                        arr.store(idx, (idx as u64) + 1);
                        assert_eq!(arr.load(idx), (idx as u64) + 1);
                    }
                });
            }
        });
        for idx in 0..threads * per_thread {
            assert_eq!(arr.load(idx), (idx as u64) + 1);
        }
    }

    /// Chunk-growth stress: many threads hammer *distinct high indices*
    /// so nearly every store races the directory-growth path against
    /// other writers and readers. No write may be lost, and no cell may
    /// move (its address before and after arbitrary growth is identical).
    #[test]
    fn growth_stress_no_lost_writes_and_stable_addresses() {
        let arr = UnboundedAtomicArray::new();
        let threads = 8usize;
        let per_thread = 500usize;
        // Spread indices across many chunks: stride well past CHUNK_LEN.
        let index_of = |t: usize, i: usize| (i * threads + t) * 37 + t * 13;

        // Pin some early cells and record their addresses before the storm.
        arr.store(index_of(0, 0), u64::MAX);
        let pinned: Vec<(usize, *const AtomicU64)> = (0..threads)
            .map(|t| {
                let idx = index_of(t, 0);
                arr.store(idx, 999);
                (idx, arr.cell_addr(idx).expect("just stored"))
            })
            .collect();
        let pinned_addrs: Vec<(usize, usize)> =
            pinned.iter().map(|(i, p)| (*i, *p as usize)).collect();

        std::thread::scope(|s| {
            for t in 0..threads {
                let arr = &arr;
                s.spawn(move || {
                    for i in 1..per_thread {
                        let idx = index_of(t, i);
                        arr.store(idx, idx as u64 + 1);
                        // Immediate read-back through the directory.
                        assert_eq!(arr.load(idx), idx as u64 + 1, "lost write at {idx}");
                    }
                });
            }
        });

        // Every write from every thread is still there.
        for t in 0..threads {
            for i in 1..per_thread {
                let idx = index_of(t, i);
                assert_eq!(arr.load(idx), idx as u64 + 1, "lost write at {idx}");
            }
        }
        // The pre-growth cells neither moved nor changed.
        for (idx, addr) in pinned_addrs {
            assert_eq!(
                arr.cell_addr(idx).expect("chunk exists") as usize,
                addr,
                "cell {idx} was relocated by growth"
            );
            if idx != index_of(0, 0) {
                assert_eq!(arr.load(idx), 999);
            }
        }
    }

    /// Two threads leave `pass` together. It spins: a parked waiter wakes
    /// microseconds after its peer, and the accesses under test would
    /// never overlap. (It yields now and then, for a host with one core.)
    struct SpinGate(std::sync::atomic::AtomicUsize);

    impl SpinGate {
        fn pass(&self, round: usize) {
            self.0.fetch_add(1, Ordering::SeqCst);
            let mut spins = 0u32;
            while self.0.load(Ordering::SeqCst) < 2 * (round + 1) {
                spins += 1;
                if spins.is_multiple_of(4096) {
                    std::thread::yield_now();
                }
                std::hint::spin_loop();
            }
        }
    }

    /// Dekker over the directory: in a fresh array each thread stores 1
    /// into a chunk nobody has touched, then loads the other's register.
    /// Both loads may race the other thread's *publication* and miss the
    /// chunk, but one of the two stores is first in the `SeqCst` order
    /// and the other thread's load comes after it: 0/0 means a missed
    /// lookup escaped that order (see the module docs).
    #[test]
    fn fresh_chunk_dekker_never_reads_zero_zero() {
        // Chunk-id pairs: same bucket, neighbouring buckets, bucket 0
        // against a far one, and two far buckets (nothing is published
        // in a fresh array, so every pair starts with both levels missing).
        const PAIRS: [(usize, usize); 6] = [(3, 5), (1, 2), (0, 9), (7, 8), (40, 3_000), (0, 1)];
        let (batches, per_batch) = (20, 1_000);
        for batch in 0..batches {
            let arrays: Vec<UnboundedAtomicArray> = (0..per_batch)
                .map(|_| UnboundedAtomicArray::new())
                .collect();
            let gate = SpinGate(std::sync::atomic::AtomicUsize::new(0));
            let run = |me: usize| {
                let (arrays, gate) = (&arrays, &gate);
                move || -> Vec<u64> {
                    (0..per_batch)
                        .map(|i| {
                            let (a, b) = PAIRS[(batch + i) % PAIRS.len()];
                            let cell = (batch * per_batch + i) % CHUNK_LEN;
                            let (mine, theirs) = if me == 0 { (a, b) } else { (b, a) };
                            gate.pass(i);
                            arrays[i].store_quiet(mine * CHUNK_LEN + cell, 1);
                            arrays[i].load_quiet(theirs * CHUNK_LEN + cell)
                        })
                        .collect()
                }
            };
            let (saw0, saw1) = std::thread::scope(|s| {
                let (t0, t1) = (s.spawn(run(0)), s.spawn(run(1)));
                (t0.join().unwrap(), t1.join().unwrap())
            });
            for (i, (r0, r1)) in saw0.iter().zip(&saw1).enumerate() {
                assert!(
                    (*r0, *r1) != (0, 0),
                    "batch {batch}, iteration {i}: both threads read 0 after storing 1"
                );
                assert_eq!(arrays[i].capacity(), 2 * CHUNK_LEN);
            }
        }
    }

    /// Publication race: eight threads store distinct values into
    /// distinct cells of the *same* unpublished chunk (and bucket) at
    /// once. One publication wins; no write is lost, the chunk is
    /// counted once, and every thread sees the cells at one address.
    #[test]
    fn racing_publishers_share_one_chunk() {
        let threads = 8usize;
        for round in 0..300usize {
            let arr = UnboundedAtomicArray::new();
            let barrier = std::sync::Barrier::new(threads);
            // Rotate the chunk through near and far buckets.
            let base = [0, 1, 6, 77, 39_062][round % 5] * CHUNK_LEN;
            let addrs: Vec<usize> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let (arr, barrier) = (&arr, &barrier);
                        s.spawn(move || {
                            barrier.wait();
                            arr.store_quiet(base + 1 + t, (round * threads + t) as u64 + 1);
                            arr.cell_addr(base).expect("just published") as usize
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for t in 0..threads {
                assert_eq!(
                    arr.load_quiet(base + 1 + t),
                    (round * threads + t) as u64 + 1,
                    "round {round}: thread {t}'s write was lost"
                );
            }
            assert_eq!(arr.capacity(), CHUNK_LEN, "round {round}");
            assert!(
                addrs.iter().all(|&a| a == addrs[0]),
                "round {round}: threads disagree on the chunk's address"
            );
        }
    }

    #[test]
    fn precise_delay_never_returns_early() {
        for micros in [50u64, 500, 2000] {
            let d = Duration::from_micros(micros);
            let start = Instant::now();
            precise_delay(d);
            assert!(start.elapsed() >= d, "delay({micros}µs) returned early");
        }
    }

    /// The §1.2 guarantee the chaos harness leans on: `delay(d)` never
    /// undershoots, including the degenerate durations a nemesis schedule
    /// or an adaptive estimator can produce (zero, a single nanosecond,
    /// sub-millisecond values below the sleep granularity).
    #[test]
    fn precise_delay_never_early_for_degenerate_durations() {
        // Zero must return (quickly) and trivially satisfies the bound.
        let start = Instant::now();
        precise_delay(Duration::ZERO);
        assert!(
            start.elapsed() < Duration::from_millis(50),
            "zero delay must not block"
        );

        for d in [
            Duration::from_nanos(1),
            Duration::from_nanos(100),
            Duration::from_micros(1),
            Duration::from_micros(999),
            Duration::from_millis(1) - Duration::from_nanos(1),
        ] {
            for _ in 0..10 {
                let start = Instant::now();
                precise_delay(d);
                assert!(start.elapsed() >= d, "delay({d:?}) returned early");
            }
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let arr = UnboundedAtomicArray::new();
        assert!(!format!("{arr:?}").is_empty());
    }
}
