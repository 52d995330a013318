//! `mutex_faults`: Algorithm 3 (`ResilientMutex`) under the failures the
//! paper is about.
//!
//! Two threads make passages through a trivial critical section while a
//! [`StallingSpace`] stalls a seeded share of their claims of Fischer's
//! `x` for 4Δ, inside the read→write hazard window. The inner
//! asynchronous lock must then carry mutual exclusion, and the wrapper
//! must return to its O(Δ) regime afterwards.

use super::{Mode, Rep, RepFn, Size};
use crate::probe::{self, CountingDelay, StallingSpace, Tally, TimedLock, TimedSpace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tfr_asynclock::bar_david::StarvationFree;
use tfr_asynclock::RawLock;
use tfr_core::mutex::resilient::ResilientMutex;
use tfr_registers::space::{NativeSpace, RegisterSpace};
use tfr_registers::ProcId;

const THREADS: usize = 2;
const DELTA: Duration = Duration::from_micros(5);
/// About one claim in this many is stalled…
const FAULT_ONE_IN: u64 = 500;
/// …for this many Δ.
const STALL_DELTAS: u32 = 4;

struct WorkerOut {
    start: Instant,
    end: Instant,
    tally: Tally,
    /// Σ of whole passages (lock, critical section, unlock).
    span_ns: u64,
    lock_ns: Vec<u64>,
    unlock_ns: Vec<u64>,
    post_fault_ns: Vec<u64>,
}

/// The state the critical section guards. Relaxed accesses suffice
/// because the lock's own registers order them, as for any data a lock
/// protects; the bump is a separate load and store so that two threads
/// inside at once lose an update.
#[derive(Default)]
struct Guarded {
    counter: AtomicU64,
    occupied: AtomicU64,
    intrusions: AtomicU64,
}

impl Guarded {
    fn critical_section(&self) {
        if self.occupied.swap(1, Ordering::Relaxed) != 0 {
            self.intrusions.fetch_add(1, Ordering::Relaxed);
        }
        let seen = self.counter.load(Ordering::Relaxed);
        self.counter.store(seen + 1, Ordering::Relaxed);
        self.occupied.store(0, Ordering::Relaxed);
    }
}

/// One repetition over `lock`, whose Fischer register lives in `space`
/// (shared here so the loop can ask it which passages were stalled).
fn rep_with<L: RawLock, S: RegisterSpace>(
    lock: L,
    space: &StallingSpace<S>,
    passages: u64,
    setup_from: Instant,
    mode: Mode,
) -> Rep {
    let traced = mode == Mode::Spans;
    let mut rep = Rep::default();
    let guarded = Guarded::default();
    let barrier = Barrier::new(THREADS);
    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (lock, guarded, barrier) = (&lock, &guarded, &barrier);
                s.spawn(move || {
                    let pid = ProcId(t);
                    probe::pin_worker(t, THREADS);
                    let (mut lock_ns, mut unlock_ns) = (Vec::new(), Vec::new());
                    let mut post_fault_ns = Vec::new();
                    if traced {
                        lock_ns.reserve(passages as usize);
                        unlock_ns.reserve(passages as usize);
                    }
                    let mut after_fault = false;
                    let mut span_ns = 0u64;
                    barrier.wait();
                    probe::take_tally();
                    let start = Instant::now();
                    for _ in 0..passages {
                        if traced {
                            let t0 = Instant::now();
                            lock.lock(pid);
                            let t1 = Instant::now();
                            guarded.critical_section();
                            let t2 = Instant::now();
                            lock.unlock(pid);
                            let t3 = Instant::now();
                            let ns = (t1 - t0).as_nanos() as u64;
                            lock_ns.push(ns);
                            unlock_ns.push((t3 - t2).as_nanos() as u64);
                            span_ns += (t3 - t0).as_nanos() as u64;
                            if after_fault {
                                post_fault_ns.push(ns);
                            }
                            after_fault = space.take_stalled(pid);
                        } else {
                            lock.lock(pid);
                            guarded.critical_section();
                            lock.unlock(pid);
                        }
                    }
                    let end = Instant::now();
                    WorkerOut {
                        start,
                        end,
                        tally: probe::take_tally(),
                        span_ns,
                        lock_ns,
                        unlock_ns,
                        post_fault_ns,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mutex thread panicked"))
            .collect()
    });

    let start = outs.iter().map(|o| o.start).min().expect("two threads");
    let end = outs.iter().map(|o| o.end).max().expect("two threads");
    rep.setup_s = (start - setup_from).as_secs_f64();
    rep.timed_s = (end - start).as_secs_f64();
    rep.ops = passages * THREADS as u64;

    let intrusions = guarded.intrusions.load(Ordering::Relaxed);
    let made = rep.ops;
    rep.check(made, intrusions, || {
        format!("{intrusions} passages found the critical section occupied")
    });
    let counted = guarded.counter.load(Ordering::Relaxed);
    rep.check(made, made.abs_diff(counted), || {
        format!("counter reads {counted} after {made} passages")
    });
    let faults = space.faults();
    rep.check(1, (faults == 0) as u64, || {
        "no timing failure was injected".to_string()
    });

    if traced {
        let mut tally = Tally::default();
        let (mut lock_ns, mut unlock_ns) = (Vec::new(), Vec::new());
        let mut post_fault_ns = Vec::new();
        let (mut thread_ns, mut span_ns) = (0u64, 0u64);
        for o in outs {
            thread_ns += (o.end - o.start).as_nanos() as u64;
            span_ns += o.span_ns;
            tally.merge(o.tally);
            lock_ns.extend(o.lock_ns);
            unlock_ns.extend(o.unlock_ns);
            post_fault_ns.extend(o.post_fault_ns);
        }
        let inner_ns: u64 = tally
            .inner_lock_ns
            .iter()
            .chain(&tally.inner_unlock_ns)
            .sum();
        let per = |a: u64, b: u64| a as f64 / (b as f64).max(1.0);
        rep.vals.extend([
            ("trace.span_cover", per(span_ns, thread_ns)),
            ("registers.reads_per_op", per(tally.reads, rep.ops)),
            ("registers.writes_per_op", per(tally.writes, rep.ops)),
            ("core.mutex_delays_per_entry", per(tally.delays, rep.ops)),
            ("core.mutex_retry_ratio", per(tally.contended, rep.ops)),
            ("core.mutex_x_ops_per_entry", per(tally.reg_ops(), rep.ops)),
            ("core.mutex_faults_injected", faults as f64),
            // Estimated thread-seconds per passage and thread; the runner
            // turns it into a share of the untraced repetitions' time.
            (
                "core.delay_share_est",
                tally.delays as f64 * DELTA.as_secs_f64() / rep.ops as f64 / THREADS as f64,
            ),
            ("asynclock.time_share", per(inner_ns, thread_ns)),
        ]);
        rep.samples.extend([
            ("op", lock_ns.clone()),
            ("core.mutex_lock", lock_ns),
            ("core.mutex_unlock", unlock_ns),
            ("core.mutex_post_fault", post_fault_ns),
            ("asynclock.lock", tally.inner_lock_ns),
            ("asynclock.unlock", tally.inner_unlock_ns),
        ]);
    }
    rep
}

pub fn faults(seed: u64, size: Size) -> RepFn {
    let passages = match size {
        Size::Full => 100_000,
        // Enough claims for the 1/500 schedule to fire on any seed.
        Size::Tiny => 4_000,
    };
    let stall = DELTA * STALL_DELTAS;
    Box::new(move |mode| {
        let setup_from = Instant::now();
        if mode == Mode::Spans {
            let space = Arc::new(StallingSpace::new(
                TimedSpace::counting(NativeSpace::new()),
                THREADS,
                seed,
                FAULT_ONE_IN,
                stall,
            ));
            let lock = ResilientMutex::on_with_delay_source(
                Arc::clone(&space),
                TimedLock(StarvationFree::over_lamport_fast(THREADS)),
                THREADS,
                CountingDelay(DELTA),
            );
            rep_with(lock, &space, passages, setup_from, mode)
        } else {
            let space = Arc::new(StallingSpace::new(
                NativeSpace::new(),
                THREADS,
                seed,
                FAULT_ONE_IN,
                stall,
            ));
            let lock = ResilientMutex::standard_on(Arc::clone(&space), THREADS, DELTA);
            rep_with(lock, &space, passages, setup_from, mode)
        }
    })
}
