//! Measurement from outside: wrappers over the public seams of the
//! library crates, and the per-thread tally they report into.
//!
//! Nothing here reaches into a crate. [`TimedSpace`] and
//! [`StallingSpace`] sit beneath `core`/`service`/`log` through
//! `RegisterSpace`; [`TimedLock`] wraps Algorithm 3's inner lock through
//! `RawLock`; [`CountingDelay`] is a `DelaySource`; [`PointTally`] is a
//! `PointObserver`. Each records into the calling thread's [`Tally`], so
//! two workers never share a counter's cache line and the traced run
//! perturbs contention as little as counting can.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tfr_asynclock::RawLock;
use tfr_core::adaptive::DelaySource;
use tfr_registers::chaos::{points, PointObserver};
use tfr_registers::rng::SplitMix64;
use tfr_registers::space::{NativeSpace, RegisterSpace};
use tfr_registers::ProcId;

/// The injection points the ledger counts, by index into
/// [`Tally::points`].
pub const POINTS: [&str; 4] = [
    points::CONSENSUS_ROUND,
    points::DELAY,
    points::UNIVERSAL_COMBINE,
    points::LOG_PROPOSE,
];
pub const P_ROUND: usize = 0;
pub const P_DELAY: usize = 1;
pub const P_COMBINE: usize = 2;
pub const P_PROPOSE: usize = 3;

/// What one thread's probes saw since its last [`take_tally`].
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub reads: u64,
    pub writes: u64,
    /// Per-call register times; filled only by a timing [`TimedSpace`].
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub points: [u64; POINTS.len()],
    /// `DelaySource::current_delay` calls: one per `delay(Δ)` taken.
    pub delays: u64,
    /// `DelaySource::on_contended` calls: one per failed Fischer check.
    pub contended: u64,
    pub inner_lock_ns: Vec<u64>,
    pub inner_unlock_ns: Vec<u64>,
}

impl Tally {
    /// Folds another thread's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
        for (a, b) in self.points.iter_mut().zip(other.points) {
            *a += b;
        }
        self.delays += other.delays;
        self.contended += other.contended;
        self.inner_lock_ns.extend(other.inner_lock_ns);
        self.inner_unlock_ns.extend(other.inner_unlock_ns);
    }

    pub fn reg_ops(&self) -> u64 {
        self.reads + self.writes
    }
}

#[derive(Default)]
struct ThreadTally {
    reads: Cell<u64>,
    writes: Cell<u64>,
    points: [Cell<u64>; POINTS.len()],
    delays: Cell<u64>,
    contended: Cell<u64>,
    read_ns: RefCell<Vec<u64>>,
    write_ns: RefCell<Vec<u64>>,
    inner_lock_ns: RefCell<Vec<u64>>,
    inner_unlock_ns: RefCell<Vec<u64>>,
}

thread_local! {
    static TALLY: ThreadTally = ThreadTally::default();
}

fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

/// Takes and resets the calling thread's tally. A worker calls it once
/// at the barrier (discarding set-up accesses) and once when its timed
/// region ends.
pub fn take_tally() -> Tally {
    TALLY.with(|t| Tally {
        reads: t.reads.take(),
        writes: t.writes.take(),
        read_ns: t.read_ns.take(),
        write_ns: t.write_ns.take(),
        points: std::array::from_fn(|i| t.points[i].take()),
        delays: t.delays.take(),
        contended: t.contended.take(),
        inner_lock_ns: t.inner_lock_ns.take(),
        inner_unlock_ns: t.inner_unlock_ns.take(),
    })
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A register space that counts accesses, and with `timed` set also
/// times each one. Counting is for native registers, where a clock read
/// costs more than the access; timing is for quorum registers, where
/// 50 ns of clock is noise against a 250 µs round.
#[derive(Debug)]
pub struct TimedSpace<S> {
    inner: S,
    timed: bool,
}

impl<S: RegisterSpace> TimedSpace<S> {
    pub fn counting(inner: S) -> TimedSpace<S> {
        TimedSpace {
            inner,
            timed: false,
        }
    }

    pub fn timing(inner: S) -> TimedSpace<S> {
        TimedSpace { inner, timed: true }
    }
}

impl<S: RegisterSpace> RegisterSpace for TimedSpace<S> {
    fn read(&self, index: u64) -> u64 {
        if !self.timed {
            TALLY.with(|t| bump(&t.reads));
            return self.inner.read(index);
        }
        let t0 = Instant::now();
        let value = self.inner.read(index);
        let ns = ns_since(t0);
        TALLY.with(|t| {
            bump(&t.reads);
            t.read_ns.borrow_mut().push(ns);
        });
        value
    }

    fn write(&self, index: u64, value: u64) {
        if !self.timed {
            TALLY.with(|t| bump(&t.writes));
            return self.inner.write(index, value);
        }
        let t0 = Instant::now();
        self.inner.write(index, value);
        let ns = ns_since(t0);
        TALLY.with(|t| {
            bump(&t.writes);
            t.write_ns.borrow_mut().push(ns);
        });
    }
}

/// One SplitMix64 step from `x`: the seeded hash behind every fault
/// position.
pub fn mix(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// One process's fault bookkeeping, on its own cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct StallLane {
    claims: AtomicU64,
    faults: AtomicU64,
    just_stalled: AtomicBool,
}

/// A register space that injects timing failures in the paper's sense
/// into Algorithm 3's Fischer stage: a seeded share of each process's
/// claims of `x` (writes of its token to register 0) take `stall` longer
/// than Δ allows. The stall lands between the process's `await x = 0`
/// and its `x := i`, the read→write window in which plain Fischer loses
/// mutual exclusion.
#[derive(Debug)]
pub struct StallingSpace<S> {
    inner: S,
    seed: u64,
    one_in: u64,
    stall: Duration,
    lanes: Vec<StallLane>,
}

impl<S: RegisterSpace> StallingSpace<S> {
    /// Stalls about one in `one_in` of each of `n` processes' claims for
    /// `stall`, at positions fixed by `seed`.
    pub fn new(inner: S, n: usize, seed: u64, one_in: u64, stall: Duration) -> StallingSpace<S> {
        assert!(one_in > 0, "a fault rate of 1/0");
        StallingSpace {
            inner,
            seed,
            one_in,
            stall,
            lanes: (0..n).map(|_| StallLane::default()).collect(),
        }
    }

    /// Faults injected so far, over all processes.
    pub fn faults(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.faults.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether `pid` was stalled since the last call (and clears it).
    pub fn take_stalled(&self, pid: ProcId) -> bool {
        self.lanes[pid.0]
            .just_stalled
            .swap(false, Ordering::Relaxed)
    }
}

impl<S: RegisterSpace> RegisterSpace for StallingSpace<S> {
    fn read(&self, index: u64) -> u64 {
        self.inner.read(index)
    }

    fn write(&self, index: u64, value: u64) {
        if index == 0 {
            if let Some(pid) = ProcId::from_token(value) {
                // Only `pid`'s own thread touches its lane, so relaxed
                // counters are exact.
                let lane = &self.lanes[pid.0];
                let k = lane.claims.fetch_add(1, Ordering::Relaxed);
                if mix(self.seed ^ mix(pid.0 as u64) ^ k).is_multiple_of(self.one_in) {
                    let until = Instant::now() + self.stall;
                    while Instant::now() < until {
                        std::hint::spin_loop();
                    }
                    lane.faults.fetch_add(1, Ordering::Relaxed);
                    lane.just_stalled.store(true, Ordering::Relaxed);
                }
            }
        }
        self.inner.write(index, value);
    }
}

/// Times the inner asynchronous lock `A` of Algorithm 3.
#[derive(Debug)]
pub struct TimedLock<A>(pub A);

impl<A: RawLock> RawLock for TimedLock<A> {
    fn lock(&self, pid: ProcId) {
        let t0 = Instant::now();
        self.0.lock(pid);
        let ns = ns_since(t0);
        TALLY.with(|t| t.inner_lock_ns.borrow_mut().push(ns));
    }

    fn unlock(&self, pid: ProcId) {
        let t0 = Instant::now();
        self.0.unlock(pid);
        let ns = ns_since(t0);
        TALLY.with(|t| t.inner_unlock_ns.borrow_mut().push(ns));
    }

    fn n(&self) -> usize {
        self.0.n()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A fixed Δ that counts how often it is asked for (one `delay(Δ)` each)
/// and how often the algorithm reports a failed check.
#[derive(Debug)]
pub struct CountingDelay(pub Duration);

impl DelaySource for CountingDelay {
    fn current_delay(&self) -> Duration {
        TALLY.with(|t| bump(&t.delays));
        self.0
    }

    fn on_contended(&self) {
        TALLY.with(|t| bump(&t.contended));
    }
}

/// Counts hits of [`POINTS`] by threads running under `run_as`.
#[derive(Debug)]
pub struct PointTally;

impl PointObserver for PointTally {
    fn point_hit(&self, _pid: ProcId, point: &'static str) {
        if let Some(i) = POINTS.iter().position(|&p| p == point) {
            TALLY.with(|t| bump(&t.points[i]));
        }
    }

    fn fault_fired(&self, _: ProcId, _: &'static str, _: Duration, _: bool) {}
}

/// Unit cost of one native register read and one write, in ns, from a
/// loop over a cache-resident `NativeSpace`, measured once per process.
/// It prices the counts a counting [`TimedSpace`] takes; the service's
/// own accesses are sparser and miss more, so the product is a floor,
/// not a measurement.
pub fn calibrate_native() -> (f64, f64) {
    static UNIT_COST: std::sync::OnceLock<(f64, f64)> = std::sync::OnceLock::new();
    *UNIT_COST.get_or_init(|| {
        const CELLS: u64 = 1 << 12;
        const OPS: u64 = 1 << 20;
        let space = NativeSpace::with_capacity(CELLS as usize);
        let t0 = Instant::now();
        for i in 0..OPS {
            space.write(black_box(i & (CELLS - 1)), i);
        }
        let write_ns = ns_since(t0) as f64 / OPS as f64;
        let t0 = Instant::now();
        let mut sum = 0u64;
        for i in 0..OPS {
            sum = sum.wrapping_add(space.read(black_box(i & (CELLS - 1))));
        }
        black_box(sum);
        let read_ns = ns_since(t0) as f64 / OPS as f64;
        (read_ns, write_ns)
    })
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the kernel's `cpu_set_t` (1024 bits).
const CPU_SET_WORDS: usize = 16;

/// The CPUs this process may run on, read once before any thread is
/// pinned.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; CPU_SET_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..CPU_SET_WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Pins the calling worker thread to a CPU of its own: worker `slot`
/// gets the `slot`-th allowed CPU. Left to the scheduler, two workers
/// sometimes share one core and take turns, and a contended workload
/// then runs 2–3× faster than when they truly collide; a run lands in
/// one mode or the other as a whole, so no median removes it. Does
/// nothing when there are fewer CPUs than workers.
pub fn pin_worker(slot: usize, workers: usize) {
    let cpus = allowed_cpus();
    if cpus.len() < workers {
        return;
    }
    let cpu = cpus[slot];
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread. A refusal leaves the thread where
    // it was, which is safe, only noisier.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD`.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;
/// The largest `M_MMAP_THRESHOLD` glibc accepts on a 64-bit target.
const MMAP_THRESHOLD_MAX: i32 = 32 << 20;

/// Tells the allocator to keep freed memory instead of handing it back
/// to the system (no heap trimming, and every block up to 32 MB taken
/// from the heap, not from a mapping of its own). The service and log
/// workloads call it before their first repetition. With glibc's
/// default (a trim threshold it adjusts as it goes) a repetition that
/// finds the previous one's heap still mapped skips some 75 000 page
/// faults and runs up to 25 % faster than one that does not, and which
/// of the two happens is an accident of what sits at the top of the
/// heap. Kept, the heap is warm for every repetition after the first,
/// as it is in a process that serves for long; the median leaves the
/// cold first one out. `sim_storm` keeps the defaults: its memory is a
/// few vectors of tens of megabytes, which glibc maps directly and grows
/// in place, and which in the heap must be copied to grow.
pub fn keep_freed_memory() {
    // SAFETY: `mallopt` takes two integers and only sets an allocator
    // parameter; a refusal leaves the default in place.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX);
    }
}

/// Resets the peak-RSS mark (`VmHWM`) to the current resident set, so
/// that each repetition's peak is its own. Returns whether it could.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (`VmHWM`), in MB, since the last
/// [`reset_peak_rss`] that succeeded.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_space_counts_or_times_on_the_calling_thread() {
        take_tally();
        let counting = TimedSpace::counting(NativeSpace::new());
        counting.write(3, 9);
        assert_eq!(counting.read(3), 9);
        assert_eq!(counting.read(4), 0);
        let t = take_tally();
        assert_eq!((t.reads, t.writes), (2, 1));
        assert!(t.read_ns.is_empty(), "counting mode reads no clock");

        let timing = TimedSpace::timing(NativeSpace::new());
        timing.write(0, 1);
        timing.read(0);
        let t = take_tally();
        assert_eq!((t.read_ns.len(), t.write_ns.len()), (1, 1));
        assert_eq!(take_tally().reg_ops(), 0, "take resets");
    }

    #[test]
    fn stalls_land_on_claims_only_at_seeded_positions() {
        let space = StallingSpace::new(NativeSpace::new(), 2, 7, 4, Duration::from_micros(1));
        for _ in 0..400 {
            space.write(0, ProcId(1).token()); // a claim
            space.write(0, 0); // a release: never stalled
            space.write(5, 1); // not x
        }
        let faults = space.faults();
        assert!((50..150).contains(&faults), "≈1/4 of 400 claims: {faults}");
        assert!(space.take_stalled(ProcId(1)));
        assert!(!space.take_stalled(ProcId(1)), "take clears");
        assert!(!space.take_stalled(ProcId(0)), "p0 made no claim");
        // Same seed, same positions.
        let again = StallingSpace::new(NativeSpace::new(), 2, 7, 4, Duration::ZERO);
        for _ in 0..400 {
            again.write(0, ProcId(1).token());
        }
        assert_eq!(again.faults(), faults);
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
