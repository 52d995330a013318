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
use std::num::NonZeroU64;
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
/// # Groups
///
/// Besides `read` and `write`, a space serves a **group** of [`Access`]es
/// in one [`RegisterSpace::access_all`] call: runs of reads, runs of
/// writes and conditional writes, on any cells. A group is a batch of
/// single-register operations, not a bigger atomic object: every access
/// is atomic per cell, as if by its own `read` / `write` somewhere inside
/// the call, and the accesses are mutually concurrent. One thing is
/// promised across cells: **a group's owned and agreed writes (see
/// [Write kinds](RegisterSpace#write-kinds)) are ordered, in slice order,
/// for every reader** — a read that returns one of them, followed by a
/// read of a cell an earlier one wrote, returns that earlier write or a
/// later write of its cell. Nothing else is promised across the group's
/// accesses. The default runs the group in slice order through `read`
/// and `write`, which is all shared memory needs, and keeps that order
/// by program order. A backend whose accesses cost round trips (the
/// `tfr-net` quorum space) serves a whole group in the round trips of one
/// access, one message per replica per phase, and keeps the order by
/// making those writes visible together. Callers group only accesses
/// whose mutual order their algorithm does not rely on, or relies on
/// only as that order (linearizability is local, so concurrent operations
/// on different cells compose); the stride of a run must be nonzero when
/// it has more than one cell. The single-access forms (`read_run`,
/// `write_agreed`, …) are groups of one, provided by
/// [`RegisterSpaceExt`].
///
/// # Write kinds
///
/// A [`Access::WriteRun`] carries the [`WriteKind`] its caller declares,
/// never one the space infers:
///
/// * **Owned** cells are written through this one space handle only:
///   every write they ever receive comes through it, as an owned write.
///   A backend whose multi-writer write must first learn what other
///   writers did (the quorum space's query phase) may skip that step for
///   a cell with one writer.
/// * **Agreed** cells receive one value only: every write, through any
///   handle, carries this same value, so a reader sees 0 or that value
///   whatever order the writes take. Algorithm 1's `x[r][v] := 1` writes
///   a constant, and `decide` and a multivalued decision carry the one
///   agreed value. Such a backend may skip the query, because there is
///   no other value to order against.
/// * **Queried** writes promise nothing.
///
/// Shared memory gains nothing from either promise and writes every kind
/// alike.
///
/// # Conditional writes
///
/// [`Access::WriteIfUnset`] is Algorithm 1's `if y = ⊥ then y := v`: a
/// read of the cell and, if it read 0, a write of `value`, with `between`
/// run in between; it leaves what it read in `seen`, so it wrote exactly
/// when `seen` is 0. It is two operations, not an atomic compare and set:
/// another writer may write the cell between the read and the write, and
/// the write then lands after it. The default is exactly `read`, then
/// `between()` and `write`. A backend whose read and write both open with
/// a query (the quorum space) may serve the pair with one query: the read
/// is linearized at the query and the write right after it, which is what
/// a caller that writes as soon as it has read gets anyway.
///
/// # Round trips
///
/// [`RegisterSpace::round_trips`] states a fact about the backend: an
/// access waits on a network round trip rather than on memory. A caller
/// that drives several independent register regions (the service's
/// disjoint shards) may then send their accesses together, one group of
/// several regions' accesses per round, which saves rounds, not work.
/// Shared memory answers `false`: it gains nothing from the sharing, so
/// such a caller serves the regions one after the other.
pub trait RegisterSpace: Send + Sync {
    /// Atomically reads register `index` (0 if never written).
    fn read(&self, index: u64) -> u64;

    /// Atomically writes `value` to register `index`.
    fn write(&self, index: u64, value: u64);

    /// Serves every access of `group`: each atomically per cell, nothing
    /// across cells or accesses (see [Groups](RegisterSpace#groups)).
    /// Results land in the read runs' `out` buffers and the conditional
    /// writes' `seen`; every access comes back in the caller's
    /// coordinates, even through a forwarding space that rewrote them.
    ///
    /// The default runs the accesses in slice order through `read` and
    /// `write` and allocates nothing. It is inlined into every caller, as
    /// are the forwarding wrappers' `access_all` and the single-access
    /// forms: a group built at a call site then folds into the plain
    /// reads and writes it stands for. One shared out-of-line copy, whose
    /// loop and `match` see every caller's groups, made a 16-op
    /// `Universal` burst on shared memory about 15 % slower.
    #[inline(always)]
    fn access_all(&self, group: &mut [Access<'_>]) {
        for access in group {
            match access {
                Access::ReadRun { base, stride, out } => {
                    let (base, stride) = (*base, *stride);
                    for (i, slot) in out.iter_mut().enumerate() {
                        *slot = self.read(base + i as u64 * stride);
                    }
                }
                Access::WriteRun {
                    base,
                    stride,
                    values,
                    ..
                } => {
                    let (base, stride) = (*base, *stride);
                    for (i, &value) in values.iter().enumerate() {
                        self.write(base + i as u64 * stride, value);
                    }
                }
                Access::WriteIfUnset {
                    index,
                    value,
                    between,
                    seen,
                } => {
                    *seen = self.read(*index);
                    if *seen == 0 {
                        between();
                        self.write(*index, *value);
                    }
                }
            }
        }
    }

    /// Whether an access costs a network round trip (see
    /// [Round trips](RegisterSpace#round-trips)). The default is `false`.
    fn round_trips(&self) -> bool {
        false
    }
}

/// What a write run's caller promises about its cells (see
/// [Write kinds](RegisterSpace#write-kinds)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WriteKind {
    /// No promise: a multi-writer write.
    #[default]
    Queried,
    /// Every write the cells ever receive comes through this handle.
    Owned,
    /// Every write the cells ever receive carries this value.
    Agreed,
}

/// One access of a group served by [`RegisterSpace::access_all`]: a run
/// touches the cells `base + i·stride` for `i` below its slice's length,
/// and its stride must be nonzero if it has several.
pub enum Access<'a> {
    /// Reads cell `base + i·stride` into `out[i]`.
    ReadRun {
        base: u64,
        stride: u64,
        out: &'a mut [u64],
    },
    /// Writes `values[i]` to cell `base + i·stride`, as a write of `kind`.
    WriteRun {
        base: u64,
        stride: u64,
        values: &'a [u64],
        kind: WriteKind,
    },
    /// Reads cell `index` into `seen` and, if it read 0, runs `between`
    /// and writes `value` there: once served, `seen` is 0 exactly when the
    /// access wrote.
    WriteIfUnset {
        index: u64,
        value: u64,
        between: &'a mut dyn FnMut(),
        seen: u64,
    },
}

impl<'a> Access<'a> {
    /// A run of reads into `out`.
    #[inline(always)]
    pub fn read_run(base: u64, stride: u64, out: &'a mut [u64]) -> Access<'a> {
        Access::ReadRun { base, stride, out }
    }

    /// A run of writes of `kind`.
    #[inline(always)]
    pub fn write_run(base: u64, stride: u64, values: &'a [u64], kind: WriteKind) -> Access<'a> {
        Access::WriteRun {
            base,
            stride,
            values,
            kind,
        }
    }

    /// A conditional write of `value` to `index`.
    #[inline(always)]
    pub fn write_if_unset(index: u64, value: u64, between: &'a mut dyn FnMut()) -> Access<'a> {
        Access::WriteIfUnset {
            index,
            value,
            between,
            seen: 0,
        }
    }

    /// The same access, borrowing this one's buffers and `between`: how a
    /// wrapper hands a group on without giving it up.
    #[inline(always)]
    pub fn reborrow(&mut self) -> Access<'_> {
        match self {
            Access::ReadRun { base, stride, out } => Access::read_run(*base, *stride, out),
            Access::WriteRun {
                base,
                stride,
                values,
                kind,
            } => Access::write_run(*base, *stride, values, *kind),
            Access::WriteIfUnset {
                index,
                value,
                between,
                seen,
            } => Access::WriteIfUnset {
                index: *index,
                value: *value,
                between: &mut **between,
                seen: *seen,
            },
        }
    }

    /// Maps the access's cells from a view's coordinates into its
    /// parent's, local `i` being parent `base + i·stride` (see
    /// [`SubSpace`]).
    #[inline(always)]
    pub fn lift(&mut self, base: u64, stride: u64) {
        match self {
            Access::ReadRun {
                base: b, stride: s, ..
            }
            | Access::WriteRun {
                base: b, stride: s, ..
            } => {
                *b = base + *b * stride;
                *s *= stride;
            }
            Access::WriteIfUnset { index, .. } => *index = base + *index * stride,
        }
    }

    /// Undoes [`Access::lift`] by the same `base` and `stride`. The
    /// divisor cannot be zero, so nothing is left of the call when the
    /// caller drops the access unread.
    #[inline(always)]
    pub fn unlift(&mut self, base: u64, stride: NonZeroU64) {
        match self {
            Access::ReadRun {
                base: b, stride: s, ..
            }
            | Access::WriteRun {
                base: b, stride: s, ..
            } => {
                *b = (*b - base) / stride;
                *s /= stride;
            }
            Access::WriteIfUnset { index, .. } => *index = (*index - base) / stride,
        }
    }

    /// The cells the access touches, in order.
    pub fn cells(&self) -> impl Iterator<Item = u64> + '_ {
        let (base, stride, len) = match self {
            Access::ReadRun { base, stride, out } => (*base, *stride, out.len()),
            Access::WriteRun {
                base,
                stride,
                values,
                ..
            } => (*base, *stride, values.len()),
            Access::WriteIfUnset { index, .. } => (*index, 1, 1),
        };
        (0..len as u64).map(move |i| base + i * stride)
    }
}

/// The single-access forms of [`RegisterSpace::access_all`], each a group
/// of one, for every space.
pub trait RegisterSpaceExt: RegisterSpace {
    /// Reads cell `base + i·stride` into `out[i]` for every `i`: each cell
    /// atomically, nothing across cells.
    #[inline(always)]
    fn read_run(&self, base: u64, stride: u64, out: &mut [u64]) {
        self.access_all(&mut [Access::read_run(base, stride, out)])
    }

    /// Writes `values[i]` to cell `base + i·stride` for every `i`: each
    /// cell atomically, nothing across cells.
    #[inline(always)]
    fn write_run(&self, base: u64, stride: u64, values: &[u64]) {
        self.access_all(&mut [Access::write_run(base, stride, values, WriteKind::Queried)])
    }

    /// [`RegisterSpaceExt::write_run`] on cells this handle owns (see
    /// [Write kinds](RegisterSpace#write-kinds)).
    #[inline(always)]
    fn write_run_owned(&self, base: u64, stride: u64, values: &[u64]) {
        self.access_all(&mut [Access::write_run(base, stride, values, WriteKind::Owned)])
    }

    /// A write to a cell whose every write, through any handle, ever,
    /// carries this `value` (see [Write kinds](RegisterSpace#write-kinds)).
    #[inline(always)]
    fn write_agreed(&self, index: u64, value: u64) {
        self.access_all(&mut [Access::write_run(index, 1, &[value], WriteKind::Agreed)])
    }

    /// Reads cell `index` and, if it read 0, runs `between` and writes
    /// `value` there; returns what it read (see
    /// [Conditional writes](RegisterSpace#conditional-writes)).
    #[inline(always)]
    fn write_if_unset(&self, index: u64, value: u64, between: &mut dyn FnMut()) -> u64 {
        let mut group = [Access::write_if_unset(index, value, between)];
        self.access_all(&mut group);
        let [Access::WriteIfUnset { seen, .. }] = group else {
            unreachable!("the group holds its conditional write")
        };
        seen
    }
}

impl<S: RegisterSpace + ?Sized> RegisterSpaceExt for S {}

macro_rules! forward_space {
    ($($ptr:ty),*) => {$(
        impl<S: RegisterSpace + ?Sized> RegisterSpace for $ptr {
            fn read(&self, index: u64) -> u64 {
                (**self).read(index)
            }
            fn write(&self, index: u64, value: u64) {
                (**self).write(index, value)
            }
            #[inline(always)]
            fn access_all(&self, group: &mut [Access<'_>]) {
                (**self).access_all(group)
            }
            fn round_trips(&self) -> bool {
                (**self).round_trips()
            }
        }
    )*};
}

forward_space!(Arc<S>, &S, Box<S>);

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
    stride: NonZeroU64,
}

impl<S: RegisterSpace> SubSpace<S> {
    /// Creates the view `i ↦ base + i × stride` of `inner`.
    ///
    /// `stride` must be nonzero (a zero stride would alias every local
    /// index onto one parent register).
    pub fn new(inner: S, base: u64, stride: u64) -> SubSpace<S> {
        let stride = NonZeroU64::new(stride).expect("a SubSpace stride of 0 aliases all registers");
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
        self.stride.get()
    }

    /// The parent space.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The parent index local index `i` maps to — for alias analysis in
    /// tests; reads and writes go through [`RegisterSpace`].
    pub fn parent_index(&self, i: u64) -> u64 {
        self.base + i * self.stride.get()
    }

    /// Maps `access` from this view's coordinates into the parent's: how
    /// a caller that owns the parent builds one group across several
    /// views.
    #[inline(always)]
    pub fn lift(&self, access: &mut Access<'_>) {
        access.lift(self.base, self.stride.get())
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

/// A group through the view is one group of the parent: each access is
/// lifted into the parent's coordinates, the affine maps composing —
/// `base + i·stride` locally is `(b₀ + base·s₀) + i·(stride·s₀)` in the
/// parent — and lowered back once the parent has served it.
impl<S: RegisterSpace> RegisterSpace for SubSpace<S> {
    fn read(&self, index: u64) -> u64 {
        self.inner.read(self.parent_index(index))
    }
    fn write(&self, index: u64, value: u64) {
        self.inner.write(self.parent_index(index), value)
    }
    #[inline(always)]
    fn access_all(&self, group: &mut [Access<'_>]) {
        for access in group.iter_mut() {
            self.lift(access);
        }
        self.inner.access_all(group);
        for access in group.iter_mut() {
            access.unlift(self.base, self.stride);
        }
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

    /// Shared memory that tapes every `read` and `write` as `(is_write,
    /// index)`, and every group it is handed as its accesses' kinds and
    /// cells, kind `'r'`, `'q'` (a queried write), `'o'` (owned), `'a'`
    /// (agreed) or `'c'` (conditional); it serves a group through the
    /// default lowering.
    #[derive(Default)]
    struct Tape {
        cells: NativeSpace,
        accesses: std::sync::Mutex<Vec<(bool, u64)>>,
        groups: std::sync::Mutex<Vec<Group>>,
    }

    /// A taped group: each access's kind and cells.
    type Group = Vec<(char, Vec<u64>)>;

    /// The default lowering, through `Tape`'s own `read` and `write`.
    struct Lowered<'a>(&'a Tape);

    impl RegisterSpace for Lowered<'_> {
        fn read(&self, index: u64) -> u64 {
            self.0.accesses.lock().unwrap().push((false, index));
            self.0.cells.read(index)
        }
        fn write(&self, index: u64, value: u64) {
            self.0.accesses.lock().unwrap().push((true, index));
            self.0.cells.write(index, value)
        }
    }

    impl RegisterSpace for Tape {
        fn read(&self, index: u64) -> u64 {
            Lowered(self).read(index)
        }
        fn write(&self, index: u64, value: u64) {
            Lowered(self).write(index, value)
        }
        fn access_all(&self, group: &mut [Access<'_>]) {
            let taped = group.iter().map(|access| {
                let kind = match access {
                    Access::ReadRun { .. } => 'r',
                    Access::WriteRun { kind, .. } => match kind {
                        WriteKind::Queried => 'q',
                        WriteKind::Owned => 'o',
                        WriteKind::Agreed => 'a',
                    },
                    Access::WriteIfUnset { .. } => 'c',
                };
                (kind, access.cells().collect())
            });
            self.groups.lock().unwrap().push(taped.collect());
            Lowered(self).access_all(group)
        }
        fn round_trips(&self) -> bool {
            true
        }
    }

    /// The default `access_all` lowers a group to exactly the in-order
    /// `read` / `write` sequence of its accesses, cell by cell: write and
    /// read runs, an empty run that touches nothing, and a conditional
    /// write of an unset cell (read, `between`, write) and of a set one
    /// (the read alone).
    #[test]
    fn the_default_lowers_a_group_to_in_order_reads_and_writes() {
        let tape = Tape::default();
        let (mut out, mut calls) = ([0; 2], 0);
        let mut unset = || calls += 1;
        let mut set = || unreachable!("a set cell is not written");
        let mut group = [
            Access::write_run(10, 2, &[5, 6], WriteKind::Owned),
            Access::read_run(10, 2, &mut out),
            Access::read_run(0, 0, &mut []),
            Access::write_if_unset(3, 7, &mut unset),
            Access::write_run(3, 1, &[8], WriteKind::Agreed),
            Access::write_if_unset(3, 9, &mut set),
            Access::write_run(1, 1, &[4], WriteKind::Queried),
        ];
        Lowered(&tape).access_all(&mut group);
        let seen = group.iter().filter_map(|access| match access {
            Access::WriteIfUnset { seen, .. } => Some(*seen),
            _ => None,
        });
        assert_eq!(seen.collect::<Vec<_>>(), [0, 8], "wrote, then read 8");
        assert_eq!((out, calls), ([5, 6], 1));
        let (r, w) = (false, true);
        assert_eq!(
            *tape.accesses.lock().unwrap(),
            [
                (w, 10),
                (w, 12),
                (r, 10),
                (r, 12),
                (r, 3),
                (w, 3),
                (w, 3),
                (r, 3),
                (w, 1)
            ]
        );
        assert!(tape.groups.lock().unwrap().is_empty());
    }

    #[test]
    fn wrappers_forward_a_group_whole_in_composed_coordinates() {
        let parent = Arc::new(Tape::default());
        // i ↦ 1 + 2i, then j ↦ 3 + 5j of that: j ↦ 7 + 10j of the parent.
        let outer = SubSpace::new(Arc::clone(&parent), 1, 2);
        let inner: Box<dyn RegisterSpace> = Box::new(SubSpace::new(Arc::new(outer), 3, 5));
        let view = &inner;
        view.write_run(2, 3, &[5, 6]); // local 2, 5 → parent 27, 57
        let mut out = [0; 2];
        view.read_run(2, 3, &mut out);
        assert_eq!(out, [5, 6]);
        let mut nothing = || ();
        let mut group = [
            Access::write_run(3, 1, &[8], WriteKind::Owned), // parent 37
            Access::write_run(4, 1, &[9], WriteKind::Agreed), // parent 47
            Access::write_if_unset(5, 3, &mut nothing),      // parent 57, set
        ];
        view.access_all(&mut group);
        assert!(matches!(group[2], Access::WriteIfUnset { seen: 6, .. }));
        let cells: Vec<u64> = group.iter().flat_map(Access::cells).collect();
        assert_eq!(
            cells,
            [3, 4, 5],
            "the group comes back in local coordinates"
        );
        assert_eq!([37, 47, 57].map(|i| parent.read(i)), [8, 9, 6]);
        assert_eq!(
            *parent.groups.lock().unwrap(),
            [
                vec![('q', vec![27, 57])],
                vec![('r', vec![27, 57])],
                vec![('o', vec![37]), ('a', vec![47]), ('c', vec![57])]
            ],
            "each group reaches the parent whole, in its coordinates, \
             every access of its kind"
        );
        assert!(view.round_trips(), "the backend's round trips show through");
        assert!(!NativeSpace::new().round_trips());
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
