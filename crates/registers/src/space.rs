//! The backend-neutral register abstraction: [`RegisterSpace`].
//!
//! The paper's algorithms are written against one primitive — the atomic
//! read/write register — and nothing else. A *register space* is an
//! unbounded, zero-initialized array of such registers behind a uniform
//! `read`/`write` interface, so the same algorithm source can execute
//! against:
//!
//! * [`NativeSpace`] — real `std::sync::atomic` cells in shared memory
//!   (the [`crate::native::UnboundedAtomicArray`] this crate already
//!   provides), where the Δ bound comes from the hardware, or
//! * a message-passing emulation (the `tfr-net` crate's majority-quorum
//!   ABD registers), where message delays and partitions are the timing
//!   failures.
//!
//! The trait deliberately mirrors the paper's model: `read` and `write`
//! on single registers, nothing stronger (no CAS, no fences beyond the
//! register's own atomicity). Any correct implementation must be
//! **atomic** (linearizable) per register — `tfr-linearize` can check
//! that claim against recorded histories.
//!
//! [`SubSpace`] carves disjoint unbounded regions out of one space so a
//! composite algorithm can hand each sub-instance its own private
//! register array, and [`SharedRegister`] names one register of a space
//! as a standalone handle.

use crate::native::UnboundedAtomicArray;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An unbounded, zero-initialized array of atomic `u64` read/write
/// registers — the paper's shared memory, abstracted over its physical
/// realization.
///
/// Implementations must make each register individually atomic
/// (linearizable): concurrent `read`s and `write`s on the same index
/// behave as if executed in some total order consistent with real time.
/// Nothing is promised *across* registers; the algorithms layered on top
/// assume only the single-register model of the paper.
///
/// # Runs
///
/// [`RegisterSpace::read_run`] and [`RegisterSpace::write_run`] access
/// the cells `base + i·stride` for `i` below the slice length in one
/// call. A run is a batch of independent single-register accesses, not a
/// bigger atomic object: each cell is read or written atomically, as if
/// by its own `read` / `write` somewhere inside the call, and **nothing
/// is promised across cells** — a concurrent reader may see some cells
/// of a `write_run` before others. The defaults loop over `read` /
/// `write` in index order, which is all shared memory needs. A backend
/// whose accesses cost round trips (the `tfr-net` quorum space) serves a
/// whole run in the round trips of one access. Callers vector only
/// accesses whose mutual order their algorithm does not rely on; the
/// stride must be nonzero when a run has more than one cell.
///
/// # Owned writes
///
/// [`RegisterSpace::write_run_owned`] is a `write_run` whose caller
/// declares the cells **owned** by this space handle: every write those
/// cells ever receive comes through this one handle, as an owned write.
/// Ownership is declared at the call site, never inferred. Shared memory
/// gains nothing from the promise, so the default is `write_run`; a
/// backend whose multi-writer write must first learn what other writers
/// did (the quorum space's query phase) may skip that step for a cell
/// with one writer.
///
/// # Agreed writes
///
/// [`RegisterSpace::write_agreed`] is a `write` whose caller declares the
/// cell **agreed**: every write the cell ever receives, through any
/// handle, carries this same `value`. A reader then sees 0 or `value`,
/// whatever order the writes take. Like ownership, agreement is declared
/// at the call site, never inferred, and it is a property of the
/// algorithm: Algorithm 1's `x[r][v] := 1` writes a constant, and
/// `decide` and a multivalued decision carry the one agreed value. The
/// default is `write`. A backend whose multi-writer write must first
/// order itself after other writers' values (the quorum space's query
/// phase) may skip that step, because there is no other value to order
/// against.
///
/// # Round trips
///
/// [`RegisterSpace::round_trips`] states a fact about the backend: an
/// access waits on a network round trip rather than on memory. A caller
/// that drives several independent register regions (the service's
/// disjoint shards) may then keep their accesses in flight at the same
/// time from helper threads, which costs latency, not work. Shared memory
/// answers `false`, so such a caller stays on its own thread.
pub trait RegisterSpace: Send + Sync {
    /// Atomically reads register `index` (0 if never written).
    fn read(&self, index: u64) -> u64;

    /// Atomically writes `value` to register `index`.
    fn write(&self, index: u64, value: u64);

    /// Reads cell `base + i·stride` into `out[i]` for every `i`: each cell
    /// atomically, nothing across cells (see [Runs](RegisterSpace#runs)).
    fn read_run(&self, base: u64, stride: u64, out: &mut [u64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.read(base + i as u64 * stride);
        }
    }

    /// Writes `values[i]` to cell `base + i·stride` for every `i`: each
    /// cell atomically, nothing across cells (see
    /// [Runs](RegisterSpace#runs)).
    fn write_run(&self, base: u64, stride: u64, values: &[u64]) {
        for (i, &value) in values.iter().enumerate() {
            self.write(base + i as u64 * stride, value);
        }
    }

    /// [`RegisterSpace::write_run`] on cells this handle owns: every
    /// write to them, ever, comes through this handle as an owned write
    /// (see [Owned writes](RegisterSpace#owned-writes)). Same per-cell
    /// atomicity, nothing across cells.
    fn write_run_owned(&self, base: u64, stride: u64, values: &[u64]) {
        self.write_run(base, stride, values)
    }

    /// [`RegisterSpace::write`] to a cell whose every write, through any
    /// handle, ever, carries this `value` (see
    /// [Agreed writes](RegisterSpace#agreed-writes)). Same atomicity.
    fn write_agreed(&self, index: u64, value: u64) {
        self.write(index, value)
    }

    /// Whether an access costs a network round trip (see
    /// [Round trips](RegisterSpace#round-trips)). The default is `false`.
    fn round_trips(&self) -> bool {
        false
    }
}

impl<S: RegisterSpace + ?Sized> RegisterSpace for Arc<S> {
    fn read(&self, index: u64) -> u64 {
        (**self).read(index)
    }
    fn write(&self, index: u64, value: u64) {
        (**self).write(index, value)
    }
    fn read_run(&self, base: u64, stride: u64, out: &mut [u64]) {
        (**self).read_run(base, stride, out)
    }
    fn write_run(&self, base: u64, stride: u64, values: &[u64]) {
        (**self).write_run(base, stride, values)
    }
    fn write_run_owned(&self, base: u64, stride: u64, values: &[u64]) {
        (**self).write_run_owned(base, stride, values)
    }
    fn write_agreed(&self, index: u64, value: u64) {
        (**self).write_agreed(index, value)
    }
    fn round_trips(&self) -> bool {
        (**self).round_trips()
    }
}

impl<S: RegisterSpace + ?Sized> RegisterSpace for &S {
    fn read(&self, index: u64) -> u64 {
        (**self).read(index)
    }
    fn write(&self, index: u64, value: u64) {
        (**self).write(index, value)
    }
    fn read_run(&self, base: u64, stride: u64, out: &mut [u64]) {
        (**self).read_run(base, stride, out)
    }
    fn write_run(&self, base: u64, stride: u64, values: &[u64]) {
        (**self).write_run(base, stride, values)
    }
    fn write_run_owned(&self, base: u64, stride: u64, values: &[u64]) {
        (**self).write_run_owned(base, stride, values)
    }
    fn write_agreed(&self, index: u64, value: u64) {
        (**self).write_agreed(index, value)
    }
    fn round_trips(&self) -> bool {
        (**self).round_trips()
    }
}

impl<S: RegisterSpace + ?Sized> RegisterSpace for Box<S> {
    fn read(&self, index: u64) -> u64 {
        (**self).read(index)
    }
    fn write(&self, index: u64, value: u64) {
        (**self).write(index, value)
    }
    fn read_run(&self, base: u64, stride: u64, out: &mut [u64]) {
        (**self).read_run(base, stride, out)
    }
    fn write_run(&self, base: u64, stride: u64, values: &[u64]) {
        (**self).write_run(base, stride, values)
    }
    fn write_run_owned(&self, base: u64, stride: u64, values: &[u64]) {
        (**self).write_run_owned(base, stride, values)
    }
    fn write_agreed(&self, index: u64, value: u64) {
        (**self).write_agreed(index, value)
    }
    fn round_trips(&self) -> bool {
        (**self).round_trips()
    }
}

/// The shared-memory register space: [`UnboundedAtomicArray`] cells.
///
/// This is the default backend of every native algorithm — `SeqCst`
/// atomics at stable addresses, reached without a lock: an access is two
/// dependent loads through the chunk directory (bucket, then chunk), then
/// the cell. A read writes nothing shared and waits for no other thread;
/// only the first write into an untouched chunk allocates. Accesses
/// through the space fire **no**
/// chaos injection points: a register space is the *medium*, and the
/// medium cannot know which accesses an algorithm considers
/// fault-interesting (the quorum backend has no array access to
/// instrument at all). Algorithms that want the
/// [`crate::chaos::points::ARRAY_LOAD`] / `ARRAY_STORE` points fire them
/// themselves, right before the corresponding space access — which is
/// exactly what the consensus layer does, keeping its chaos schedule
/// identical across backends.
///
/// # Example
///
/// ```
/// use tfr_registers::space::{NativeSpace, RegisterSpace};
///
/// let space = NativeSpace::new();
/// assert_eq!(space.read(9_999), 0);
/// space.write(9_999, 7);
/// assert_eq!(space.read(9_999), 7);
/// ```
#[derive(Debug, Default)]
pub struct NativeSpace {
    cells: UnboundedAtomicArray,
}

impl NativeSpace {
    /// Creates an empty space (chunks allocate on first write).
    pub fn new() -> NativeSpace {
        NativeSpace {
            cells: UnboundedAtomicArray::new(),
        }
    }

    /// Creates a space with the first `n` registers pre-allocated.
    pub fn with_capacity(n: usize) -> NativeSpace {
        NativeSpace {
            cells: UnboundedAtomicArray::with_capacity(n),
        }
    }
}

impl RegisterSpace for NativeSpace {
    fn read(&self, index: u64) -> u64 {
        self.cells.load_quiet(index as usize)
    }
    fn write(&self, index: u64, value: u64) {
        self.cells.store_quiet(index as usize, value)
    }
}

/// A fixed number of shared-memory registers in one flat allocation.
///
/// For algorithms whose register count is known up front (every lock's
/// `LockSpec::registers()`): an access is one bounds check and one
/// `SeqCst` atomic, without the two dependent directory loads that
/// [`NativeSpace`] spends before its cell. Like [`NativeSpace`], it
/// fires no injection points.
///
/// # Panics
///
/// `read` and `write` panic on an index at or past the length.
///
/// # Example
///
/// ```
/// use tfr_registers::space::{DenseSpace, RegisterSpace};
///
/// let space = DenseSpace::new(4);
/// assert_eq!(space.read(3), 0);
/// space.write(3, 7);
/// assert_eq!(space.read(3), 7);
/// ```
#[derive(Debug)]
pub struct DenseSpace {
    cells: Box<[AtomicU64]>,
}

impl DenseSpace {
    /// `len` zero-initialized registers, indices `0..len`.
    pub fn new(len: usize) -> DenseSpace {
        DenseSpace {
            cells: (0..len).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl RegisterSpace for DenseSpace {
    fn read(&self, index: u64) -> u64 {
        self.cells[index as usize].load(Ordering::SeqCst)
    }
    fn write(&self, index: u64, value: u64) {
        self.cells[index as usize].store(value, Ordering::SeqCst)
    }
}

/// A strided view into another space: local index `i` maps to
/// `base + i × stride` of the parent.
///
/// With stride `s`, the sub-spaces at bases `0..s` (stride `s` each) tile
/// the parent into `s` disjoint unbounded arrays — how a composite
/// algorithm (bit-by-bit multi-consensus, the universal construction)
/// hands each sub-instance its own private register region without
/// bounding anyone's address space.
///
/// # Example
///
/// ```
/// use tfr_registers::space::{NativeSpace, RegisterSpace, SubSpace};
///
/// let parent = std::sync::Arc::new(NativeSpace::new());
/// let even = SubSpace::new(parent.clone(), 0, 2);
/// let odd = SubSpace::new(parent.clone(), 1, 2);
/// even.write(3, 10); // parent register 6
/// odd.write(3, 11); // parent register 7
/// assert_eq!(parent.read(6), 10);
/// assert_eq!(parent.read(7), 11);
/// ```
#[derive(Debug, Clone)]
pub struct SubSpace<S> {
    inner: S,
    base: u64,
    stride: u64,
}

impl<S: RegisterSpace> SubSpace<S> {
    /// Creates the view `i ↦ base + i × stride` of `inner`.
    ///
    /// `stride` must be nonzero (a zero stride would alias every local
    /// index onto one parent register).
    pub fn new(inner: S, base: u64, stride: u64) -> SubSpace<S> {
        assert!(stride > 0, "a SubSpace stride of 0 aliases all registers");
        SubSpace {
            inner,
            base,
            stride,
        }
    }

    /// The parent index local index 0 maps to.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The distance between consecutive local indices in the parent.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The parent index local index `i` maps to — for alias analysis in
    /// tests; reads and writes go through [`RegisterSpace`].
    pub fn parent_index(&self, i: u64) -> u64 {
        self.base + i * self.stride
    }
}

impl<S: RegisterSpace + Clone> SubSpace<S> {
    /// Tiles `inner` into `count` disjoint unbounded regions: tile `t` is
    /// the view `i ↦ t + i × count`. The tiles cover the parent exactly —
    /// every parent index belongs to exactly one `(tile, local)` pair —
    /// which is how the sharded service hands each shard its own private
    /// register region over one shared backend.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    ///
    /// # Example
    ///
    /// ```
    /// use tfr_registers::space::{NativeSpace, RegisterSpace, SubSpace};
    ///
    /// let parent = std::sync::Arc::new(NativeSpace::new());
    /// let tiles = SubSpace::tile(parent.clone(), 4);
    /// tiles[3].write(2, 9); // parent register 3 + 2·4 = 11
    /// assert_eq!(parent.read(11), 9);
    /// ```
    pub fn tile(inner: S, count: u64) -> Vec<SubSpace<S>> {
        assert!(count > 0, "cannot tile a space into 0 regions");
        (0..count)
            .map(|t| SubSpace::new(inner.clone(), t, count))
            .collect()
    }
}

/// A run through the view is one run of the parent: the affine maps
/// compose, `base + i·stride` locally being `(b₀ + base·s₀) + i·(stride·s₀)`
/// in the parent.
impl<S: RegisterSpace> RegisterSpace for SubSpace<S> {
    fn read(&self, index: u64) -> u64 {
        self.inner.read(self.base + index * self.stride)
    }
    fn write(&self, index: u64, value: u64) {
        self.inner.write(self.base + index * self.stride, value)
    }
    fn read_run(&self, base: u64, stride: u64, out: &mut [u64]) {
        self.inner
            .read_run(self.parent_index(base), stride * self.stride, out)
    }
    fn write_run(&self, base: u64, stride: u64, values: &[u64]) {
        self.inner
            .write_run(self.parent_index(base), stride * self.stride, values)
    }
    fn write_run_owned(&self, base: u64, stride: u64, values: &[u64]) {
        self.inner
            .write_run_owned(self.parent_index(base), stride * self.stride, values)
    }
    fn write_agreed(&self, index: u64, value: u64) {
        self.inner.write_agreed(self.parent_index(index), value)
    }
    fn round_trips(&self) -> bool {
        self.inner.round_trips()
    }
}

/// One named register of a space, as a standalone handle.
///
/// # Example
///
/// ```
/// use tfr_registers::space::{NativeSpace, SharedRegister};
///
/// let space = std::sync::Arc::new(NativeSpace::new());
/// let x = SharedRegister::new(space, 0);
/// assert_eq!(x.read(), 0);
/// x.write(41);
/// assert_eq!(x.read(), 41);
/// ```
#[derive(Debug, Clone)]
pub struct SharedRegister<S> {
    space: S,
    index: u64,
}

impl<S: RegisterSpace> SharedRegister<S> {
    /// Names register `index` of `space`.
    pub fn new(space: S, index: u64) -> SharedRegister<S> {
        SharedRegister { space, index }
    }

    /// Atomically reads the register.
    pub fn read(&self) -> u64 {
        self.space.read(self.index)
    }

    /// Atomically writes the register.
    pub fn write(&self, value: u64) {
        self.space.write(self.index, value)
    }

    /// The index this handle names inside its space.
    pub fn index(&self) -> u64 {
        self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_space_is_zero_initialized_and_persistent() {
        let s = NativeSpace::new();
        assert_eq!(s.read(0), 0);
        s.write(0, 1);
        s.write(1 << 20, 2);
        assert_eq!(s.read(0), 1);
        assert_eq!(s.read(1 << 20), 2);
    }

    #[test]
    fn sub_spaces_with_common_stride_are_disjoint() {
        let parent = Arc::new(NativeSpace::new());
        let stride = 3u64;
        let subs: Vec<SubSpace<Arc<NativeSpace>>> = (0..stride)
            .map(|b| SubSpace::new(parent.clone(), b, stride))
            .collect();
        for (b, sub) in subs.iter().enumerate() {
            for i in 0..50u64 {
                sub.write(i, (b as u64) * 1000 + i);
            }
        }
        for (b, sub) in subs.iter().enumerate() {
            for i in 0..50u64 {
                assert_eq!(sub.read(i), (b as u64) * 1000 + i, "sub {b} index {i}");
            }
        }
    }

    #[test]
    fn nested_sub_spaces_compose() {
        let parent = Arc::new(NativeSpace::new());
        let outer = SubSpace::new(parent.clone(), 1, 2);
        let inner = SubSpace::new(outer, 0, 2); // i ↦ 1 + 4i of the parent
        inner.write(3, 9);
        assert_eq!(parent.read(13), 9);
    }

    #[test]
    #[should_panic(expected = "stride of 0")]
    fn zero_stride_is_rejected() {
        let _ = SubSpace::new(NativeSpace::new(), 0, 0);
    }

    #[test]
    fn tile_partitions_the_parent_exactly() {
        let parent = Arc::new(NativeSpace::new());
        let tiles = SubSpace::tile(parent.clone(), 5);
        assert_eq!(tiles.len(), 5);
        // Each parent index 0..100 is hit by exactly one (tile, local).
        let mut owners = vec![0u32; 100];
        for tile in &tiles {
            for i in 0..20u64 {
                let p = tile.parent_index(i);
                assert_eq!(p, tile.base() + i * tile.stride());
                owners[p as usize] += 1;
            }
        }
        assert!(owners.iter().all(|&c| c == 1), "{owners:?}");
    }

    #[test]
    fn arc_and_ref_blanket_impls_delegate() {
        let s = Arc::new(NativeSpace::new());
        RegisterSpace::write(&s, 4, 44);
        assert_eq!(RegisterSpace::read(&s, 4), 44);
        let r: &NativeSpace = &s;
        assert_eq!(RegisterSpace::read(&r, 4), 44);
    }

    #[test]
    fn default_runs_loop_over_the_cells() {
        let s = NativeSpace::new();
        s.write_run(4, 3, &[1, 2, 3]);
        assert_eq!([s.read(4), s.read(7), s.read(10)], [1, 2, 3]);
        let mut out = [9; 4];
        s.read_run(4, 3, &mut out);
        assert_eq!(out, [1, 2, 3, 0]);
        s.read_run(0, 1, &mut []);
        s.write_run(0, 1, &[]);
        assert_eq!(s.read(0), 0, "an empty run touches nothing");
    }

    /// A space that tapes the runs it is handed, to check forwarding:
    /// `(kind, base, stride, len)`, kind `'r'`, `'w'`, `'o'` (owned) or
    /// `'a'` (an agreed write, taped as a run of one).
    #[derive(Default)]
    struct RunTape {
        cells: NativeSpace,
        runs: std::sync::Mutex<Vec<(char, u64, u64, usize)>>,
    }

    impl RegisterSpace for RunTape {
        fn read(&self, index: u64) -> u64 {
            self.cells.read(index)
        }
        fn write(&self, index: u64, value: u64) {
            self.cells.write(index, value)
        }
        fn read_run(&self, base: u64, stride: u64, out: &mut [u64]) {
            self.runs
                .lock()
                .unwrap()
                .push(('r', base, stride, out.len()));
            self.cells.read_run(base, stride, out)
        }
        fn write_run(&self, base: u64, stride: u64, values: &[u64]) {
            self.runs
                .lock()
                .unwrap()
                .push(('w', base, stride, values.len()));
            self.cells.write_run(base, stride, values)
        }
        fn write_run_owned(&self, base: u64, stride: u64, values: &[u64]) {
            self.runs
                .lock()
                .unwrap()
                .push(('o', base, stride, values.len()));
            self.cells.write_run(base, stride, values)
        }
        fn write_agreed(&self, index: u64, value: u64) {
            self.runs.lock().unwrap().push(('a', index, 1, 1));
            self.cells.write(index, value)
        }
        fn round_trips(&self) -> bool {
            true
        }
    }

    #[test]
    fn wrappers_forward_a_run_as_one_composed_run() {
        let parent = Arc::new(RunTape::default());
        // i ↦ 1 + 2i, then j ↦ 3 + 5j of that: j ↦ 7 + 10j of the parent.
        let outer = SubSpace::new(Arc::clone(&parent), 1, 2);
        let inner: Box<dyn RegisterSpace> = Box::new(SubSpace::new(Arc::new(outer), 3, 5));
        let view = &inner;
        view.write_run(2, 3, &[5, 6]); // local 2, 5 → parent 7 + 20, 7 + 50
        let mut out = [0; 2];
        view.read_run(2, 3, &mut out);
        assert_eq!(out, [5, 6]);
        view.write_run_owned(3, 1, &[8]); // local 3 → parent 7 + 30
        view.write_agreed(4, 9); // local 4 → parent 7 + 40
        assert_eq!(parent.read(27), 5);
        assert_eq!(parent.read(57), 6);
        assert_eq!(parent.read(37), 8);
        assert_eq!(parent.read(47), 9);
        assert_eq!(
            *parent.runs.lock().unwrap(),
            vec![
                ('w', 27, 30, 2),
                ('r', 27, 30, 2),
                ('o', 37, 10, 1),
                ('a', 47, 1, 1)
            ],
            "one run reaches the parent, with the composed base and stride, \
             an owned run stays owned and an agreed write stays agreed"
        );
        assert!(view.round_trips(), "the backend's round trips show through");
        assert!(!NativeSpace::new().round_trips());
    }

    #[test]
    fn owned_runs_and_agreed_writes_default_to_plain_writes() {
        let s = NativeSpace::new();
        s.write_run_owned(1, 2, &[4, 5]);
        s.write_agreed(6, 7);
        assert_eq!([s.read(1), s.read(3), s.read(6)], [4, 5, 7]);
    }

    #[test]
    fn shared_register_names_one_cell() {
        let space = Arc::new(NativeSpace::new());
        let a = SharedRegister::new(space.clone(), 2);
        let b = SharedRegister::new(space.clone(), 3);
        a.write(1);
        b.write(2);
        assert_eq!(a.read(), 1);
        assert_eq!(b.read(), 2);
        assert_eq!(a.index(), 2);
        assert_eq!(space.read(2), 1);
    }
}
