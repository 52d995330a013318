//! Cross-crate integration tests for §3: Fischer's fragility, Algorithm
//! 3's unconditional safety over every inner-lock choice, convergence, and
//! the Theorem 3.2 starvation contrast.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tfr::asynclock::bakery::BakerySpec;
use tfr::asynclock::bar_david::{StarvationFree, StarvationFreeSpec};
use tfr::asynclock::bw_bakery::BwBakerySpec;
use tfr::asynclock::lamport_fast::LamportFastSpec;
use tfr::asynclock::native::{Derived, Opaque};
use tfr::asynclock::peterson::PetersonSpec;
use tfr::asynclock::workload::LockLoop;
use tfr::asynclock::{DelaySource, LockSpec, RawLock};
use tfr::core::mutex::fischer::{Fischer, FischerSpec};
use tfr::core::mutex::recoverable::RecoverableMutex;
use tfr::core::mutex::resilient::{
    deadlock_free_resilient_spec, standard_resilient_spec, ResilientMutex, ResilientMutexSpec,
};
use tfr::modelcheck::{Explorer, SafetySpec};
use tfr::registers::bank::RegisterBank;
use tfr::registers::chaos::{self, points, ChaosSession, PointObserver};
use tfr::registers::space::{NativeSpace, RegisterSpace};
use tfr::registers::spec::{run_solo, Action, Obs};
use tfr::registers::{Delta, ProcId, RegId, Ticks};
use tfr::sim::metrics::mutex_stats;
use tfr::sim::timing::{standard_no_failures, PerProcess, UniformAccess};
use tfr::sim::{RunConfig, Sim};

#[test]
fn fischer_is_unsafe_and_alg3_safe_under_the_same_exploration() {
    let fischer = LockLoop::new(FischerSpec::new(2, 0, Ticks(100)), 1);
    let report = Explorer::new(fischer, 2).check(&SafetySpec::mutex());
    assert!(
        report.violation.is_some(),
        "Fischer must have a reachable ME violation"
    );

    let alg3 = LockLoop::new(standard_resilient_spec(2, 0, Ticks(100)), 1);
    let report = Explorer::new(alg3, 2).check(&SafetySpec::mutex());
    assert!(report.proven_safe(), "{:?}", report.violation);
}

/// Algorithm 3 is safe for *any* correct asynchronous inner lock: check
/// the whole zoo through the generic composition.
#[test]
fn alg3_safe_with_every_inner_lock_modelchecked() {
    fn check<A: LockSpec>(name: &str, inner: A) {
        let spec = ResilientMutexSpec::new(inner, 2, 0, Ticks(100));
        let report = Explorer::new(LockLoop::new(spec, 1), 2).check(&SafetySpec::mutex());
        assert!(report.proven_safe(), "{name}: {:?}", report.violation);
    }
    check("lamport-fast", LamportFastSpec::new(2, 1));
    check(
        "sf-lamport",
        StarvationFreeSpec::<LamportFastSpec>::over_lamport_fast(2, 1),
    );
    check("bakery", BakerySpec::new(2, 1));
    check("bw-bakery", BwBakerySpec::new(2, 1));
    check("peterson", PetersonSpec::new(2, 1));
}

#[test]
fn alg3_live_under_constant_timing_failures_with_every_inner_lock() {
    let d = Delta::from_ticks(100);
    fn run<A: LockSpec>(name: &str, inner: A, n: usize, seed: u64) {
        let d = Delta::from_ticks(100);
        let spec = ResilientMutexSpec::new(inner, n, 0, d.ticks());
        let automaton = LockLoop::new(spec, 5)
            .cs_ticks(Ticks(20))
            .ncs_ticks(Ticks(30));
        let model = UniformAccess::new(Ticks(10), Ticks(500), seed);
        let result = Sim::new(automaton, RunConfig::new(n, d), model).run();
        assert!(result.all_halted(), "{name}: stalled under failures");
        let stats = mutex_stats(&result, Ticks::ZERO);
        assert!(!stats.mutual_exclusion_violated, "{name}");
        assert_eq!(stats.cs_entries, n as u64 * 5, "{name}");
    }
    let _ = d;
    run(
        "sf-lamport",
        StarvationFreeSpec::<LamportFastSpec>::over_lamport_fast(3, 1),
        3,
        1,
    );
    run("bakery", BakerySpec::new(3, 1), 3, 2);
    run("bw-bakery", BwBakerySpec::new(3, 1), 3, 3);
    run("peterson", PetersonSpec::new(3, 1), 3, 4);
}

#[test]
fn starvation_contrast_deadlock_free_vs_starvation_free() {
    // The E8 shape as a regression test: a slow-but-legal victim against
    // a fast stream inside A.
    let d = Delta::from_ticks(100);
    let n = 3;
    let victim = ProcId(2);
    let first_entry = |sf: bool, iters: u64| -> (Ticks, Ticks) {
        let model = PerProcess::new(vec![Ticks(10), Ticks(10), Ticks(100)]);
        let result = if sf {
            Sim::new(
                LockLoop::new(
                    StarvationFreeSpec::<LamportFastSpec>::over_lamport_fast(n, 0),
                    iters,
                )
                .cs_ticks(Ticks(10))
                .ncs_ticks(Ticks(1)),
                RunConfig::new(n, d),
                model,
            )
            .run()
        } else {
            Sim::new(
                LockLoop::new(LamportFastSpec::new(n, 0), iters)
                    .cs_ticks(Ticks(10))
                    .ncs_ticks(Ticks(1)),
                RunConfig::new(n, d),
                model,
            )
            .run()
        };
        let first = result
            .obs
            .iter()
            .find(|e| e.pid == victim && e.obs == Obs::EnterCritical)
            .map(|e| e.time)
            .expect("victim enters once the stream ends");
        let stream_done = result
            .obs
            .iter()
            .filter(|e| e.pid != victim && e.obs == Obs::EnterRemainder)
            .map(|e| e.time)
            .max()
            .unwrap();
        (first, stream_done)
    };

    // Deadlock-free: the victim waits out the whole stream, and its wait
    // scales with the stream length.
    let (df_20, done_20) = first_entry(false, 20);
    let (df_40, done_40) = first_entry(false, 40);
    assert!(
        df_20 >= done_20,
        "victim must be served only after the stream"
    );
    assert!(df_40 >= done_40);
    assert!(df_40 > df_20, "victim wait must grow with the stream");

    // Starvation-free: constant, stream-independent wait.
    let (sf_20, _) = first_entry(true, 20);
    let (sf_40, _) = first_entry(true, 40);
    assert_eq!(
        sf_20, sf_40,
        "victim wait must not depend on the stream length"
    );
    assert!(sf_20 < df_20);
}

#[test]
fn convergence_of_the_generic_composition_with_peterson_inner() {
    // Peterson is starvation-free, so Algorithm 3 over it must converge
    // (Theorem 3.3 is not specific to the Lamport-based inner lock).
    let d = Delta::from_ticks(100);
    let mk = || ResilientMutexSpec::new(PetersonSpec::new(4, 1), 4, 0, d.ticks());
    let clean = Sim::new(
        LockLoop::new(mk(), 30)
            .cs_ticks(Ticks(20))
            .ncs_ticks(Ticks(30)),
        RunConfig::new(4, d),
        standard_no_failures(d, 9),
    )
    .run();
    let psi0 = mutex_stats(&clean, Ticks::ZERO).longest_starved_interval;

    let burst_end = Ticks(3_000);
    let model = tfr::sim::timing::FailureWindows::new(
        standard_no_failures(d, 9),
        vec![tfr::sim::timing::Window {
            from: Ticks::ZERO,
            to: burst_end,
            pids: None,
            inflated: Ticks(450),
        }],
    );
    let burst = Sim::new(
        LockLoop::new(mk(), 30)
            .cs_ticks(Ticks(20))
            .ncs_ticks(Ticks(30)),
        RunConfig::new(4, d),
        model,
    )
    .run();
    assert!(burst.all_halted());
    let all = mutex_stats(&burst, Ticks::ZERO);
    assert!(!all.mutual_exclusion_violated);
    let after = mutex_stats(&burst, burst_end + d.times(50));
    assert!(
        after.longest_starved_interval.0 <= psi0.0 * 2 + d.ticks().0,
        "not converged: {} vs failure-free {}",
        after.longest_starved_interval,
        psi0
    );
}

#[test]
fn native_resilient_mutex_with_every_inner_lock() {
    fn hammer(lock: Arc<dyn RawLock>, n: usize) {
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        lock.lock(ProcId(i));
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        lock.unlock(ProcId(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), n as u64 * 1_000);
    }
    let delta = Duration::from_micros(3);
    let n = 4;
    hammer(Arc::new(ResilientMutex::standard(n, delta)), n);
    hammer(
        Arc::new(ResilientMutex::new(
            tfr::asynclock::bakery::Bakery::new(n),
            n,
            delta,
        )),
        n,
    );
    hammer(
        Arc::new(ResilientMutex::new(
            tfr::asynclock::bw_bakery::BwBakery::new(n),
            n,
            delta,
        )),
        n,
    );
    hammer(
        Arc::new(ResilientMutex::new(
            tfr::asynclock::peterson::Peterson::new(n),
            n,
            delta,
        )),
        n,
    );
}

#[test]
fn deadlock_free_variant_is_safe_even_if_not_convergent() {
    let d = Delta::from_ticks(100);
    for seed in 0..10 {
        let spec = deadlock_free_resilient_spec(3, 0, d.ticks());
        let automaton = LockLoop::new(spec, 5)
            .cs_ticks(Ticks(20))
            .ncs_ticks(Ticks(30));
        let model = UniformAccess::new(Ticks(10), Ticks(500), seed);
        let result = Sim::new(automaton, RunConfig::new(3, d), model).run();
        let stats = mutex_stats(&result, Ticks::ZERO);
        assert!(!stats.mutual_exclusion_violated, "seed={seed}");
    }
}

#[test]
fn long_lived_stability_under_periodic_bursts() {
    // §1.3's convergence is not one-shot: with periodic failure bursts,
    // the lock must stay safe, keep completing work, and be back in the
    // O(Δ) regime within every good phase.
    use tfr::sim::timing::Bursts;
    let d = Delta::from_ticks(100);
    let spec = standard_resilient_spec(4, 0, d.ticks());
    let automaton = LockLoop::new(spec, 80)
        .cs_ticks(Ticks(20))
        .ncs_ticks(Ticks(30));
    let model = Bursts::new(
        standard_no_failures(d, 13),
        Ticks(5_000),
        Ticks(1_000),
        Ticks(450),
    );
    let result = Sim::new(automaton, RunConfig::new(4, d), model).run();
    assert!(
        result.all_halted(),
        "periodic bursts must not wedge the lock"
    );
    let stats = mutex_stats(&result, Ticks::ZERO);
    assert!(!stats.mutual_exclusion_violated);
    assert_eq!(stats.cs_entries, 4 * 80);
}

/// Registers that keep a tape of every access, usable both as the native
/// driver's space and as the solo runner's bank.
#[derive(Default)]
struct Taped {
    cells: NativeSpace,
    tape: Mutex<Vec<Action>>,
}

impl Taped {
    fn tape(self) -> Vec<Action> {
        self.tape.into_inner().unwrap()
    }
}

impl RegisterSpace for Taped {
    fn read(&self, index: u64) -> u64 {
        self.tape.lock().unwrap().push(Action::Read(RegId(index)));
        self.cells.read(index)
    }
    fn write(&self, index: u64, value: u64) {
        let access = Action::Write(RegId(index), value);
        self.tape.lock().unwrap().push(access);
        self.cells.write(index, value)
    }
}

impl RegisterBank for Taped {
    fn read(&self, reg: RegId) -> u64 {
        RegisterSpace::read(self, reg.0)
    }
    fn write(&mut self, reg: RegId, value: u64) {
        RegisterSpace::write(self, reg.0, value)
    }
}

/// The single-source guarantee, lock by lock: the native lock *is* the
/// spec under another driver. For each of the seven, (1) one solo native
/// passage touches the registers in exactly the order the simulator's
/// solo run of the same spec does, (2) the native driver survives a
/// two-thread hammer over a torn-counter critical section, and (3) the
/// spec model-checks at n = 2 — to "safe" for the six asynchronous locks
/// and Algorithm 3, and to the §3.1 violation for Fischer, whose native
/// hammer therefore asserts progress only.
#[test]
fn every_native_lock_is_its_spec_under_one_driver() {
    fn battery<L>(name: &str, safe: bool, make: impl Fn() -> L)
    where
        L: LockSpec + Send + Sync,
        L::State: Send,
    {
        let pid = ProcId(1);
        let mut bank = Taped::default();
        run_solo(&LockLoop::new(make(), 1), pid, &mut bank, 1_000);
        let space = Taped::default();
        let lock = Derived::on(make(), &space, Duration::ZERO);
        lock.lock(pid);
        lock.unlock(pid);
        drop(lock);
        assert_eq!(space.tape(), bank.tape(), "{name}: access sequences");

        // Fischer gets a Δ that covers real store latency and few enough
        // passages to stay quick; the safe locks get a hopeless one.
        let (delta, passages) = if safe {
            (Duration::from_nanos(1), 2_000)
        } else {
            (Duration::from_micros(200), 50)
        };
        let lock = Derived::on(make(), NativeSpace::new(), delta);
        let (a, b) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for i in 0..2 {
                let (lock, a, b) = (&lock, &a, &b);
                s.spawn(move || {
                    for _ in 0..passages {
                        lock.lock(ProcId(i));
                        let (va, vb) = (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
                        if safe {
                            assert_eq!(va, vb, "{name}: torn critical section");
                        }
                        a.store(va + 1, Ordering::Relaxed);
                        b.store(vb + 1, Ordering::Relaxed);
                        lock.unlock(ProcId(i));
                    }
                });
            }
        });
        if safe {
            assert_eq!(a.into_inner(), 2 * passages, "{name}: lost update");
        }

        let report = Explorer::new(LockLoop::new(make(), 1), 2).check(&SafetySpec::mutex());
        if safe {
            assert!(report.proven_safe(), "{name}: {:?}", report.violation);
        } else {
            assert!(report.violation.is_some(), "{name} must be unsafe");
        }
    }
    battery("lamport-fast", true, || LamportFastSpec::new(2, 0));
    battery("sf-lamport", true, || {
        StarvationFreeSpec::<LamportFastSpec>::over_lamport_fast(2, 0)
    });
    battery("bakery", true, || BakerySpec::new(2, 0));
    battery("bw-bakery", true, || BwBakerySpec::new(2, 0));
    battery("peterson", true, || PetersonSpec::new(2, 0));
    battery("fischer", false, || FischerSpec::new(2, 0, Ticks(100)));
    battery("alg3", true, || standard_resilient_spec(2, 0, Ticks(100)));
}

/// Counts a native lock's `DelaySource` calls: `current_delay`,
/// `on_contended` and `on_uncontended`, in that order.
#[derive(Default)]
struct DelayCalls([AtomicU64; 3]);

impl DelayCalls {
    fn counts(&self) -> [u64; 3] {
        self.0.each_ref().map(|c| c.load(Ordering::Relaxed))
    }
}

impl DelaySource for DelayCalls {
    fn current_delay(&self) -> Duration {
        self.0[0].fetch_add(1, Ordering::Relaxed);
        Duration::from_micros(1)
    }
    fn on_contended(&self) {
        self.0[1].fetch_add(1, Ordering::Relaxed);
    }
    fn on_uncontended(&self) {
        self.0[2].fetch_add(1, Ordering::Relaxed);
    }
}

/// Tapes the injection points the calling thread visits.
struct PointTape {
    thread: std::thread::ThreadId,
    points: Mutex<Vec<&'static str>>,
}

impl PointObserver for PointTape {
    fn point_hit(&self, _pid: ProcId, point: &'static str) {
        if std::thread::current().id() == self.thread {
            self.points.lock().unwrap().push(point);
        }
    }
    fn fault_fired(&self, _: ProcId, _: &'static str, _: Duration, _: bool) {}
}

/// The injection points one solo `lock` + `unlock` by p1 visits.
fn passage_points(lock: &dyn RawLock) -> Vec<&'static str> {
    let _session = ChaosSession::install(&[]);
    let tape = Arc::new(PointTape {
        thread: std::thread::current().id(),
        points: Mutex::new(Vec::new()),
    });
    let _observer = chaos::install_point_observer(tape.clone());
    let pid = ProcId(1);
    chaos::run_as(pid, || {
        lock.lock(pid);
        lock.unlock(pid);
    })
    .completed()
    .expect("no fault fires");
    let points = tape.points.lock().unwrap().clone();
    points
}

/// Register 0 with a competitor that claims it once: the first nonzero
/// write to it is overwritten with p0's token, and the read after that
/// sees the token and clears the register, as a competitor that backed
/// off would.
#[derive(Default)]
struct Interloper {
    cells: NativeSpace,
    /// 0 before the claim, 1 while p0's token stands, 2 after.
    stage: std::sync::atomic::AtomicU8,
}

impl RegisterSpace for Interloper {
    fn read(&self, index: u64) -> u64 {
        let value = self.cells.read(index);
        if self
            .stage
            .compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.cells.write(index, 0);
        }
        value
    }
    fn write(&self, index: u64, value: u64) {
        self.cells.write(index, value);
        if value != 0
            && self
                .stage
                .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            self.cells.write(index, ProcId(0).token());
        }
    }
}

/// What the chaos schedules count, pinned lock by lock: the injection
/// points of one solo native passage, and its `DelaySource` calls
/// (`[current_delay, on_contended, on_uncontended]`), for Fischer,
/// Algorithm 3, the starvation-free transformation and the recoverable
/// lock; and for Fischer and Algorithm 3 once more with a competitor that
/// claims `x` once right after the passage's own claim, so the check after
/// `delay(Δ)` fails once and the passage claims again.
#[test]
fn native_lock_tapes_are_pinned() {
    use points::{DELAY, FISCHER_CHECK_X, FISCHER_EXIT, FISCHER_WRITE_X};
    use points::{RECOVERABLE_ACQUIRE, RECOVERABLE_CS, RECOVERABLE_RELEASE};
    use points::{RESILIENT_EXIT, RESILIENT_INNER, RESILIENT_WRITE_X};
    let alg3 =
        |calls| ResilientMutex::with_delay_source(StarvationFree::over_lamport_fast(2), 2, calls);

    let calls = DelayCalls::default();
    let tape = passage_points(&Fischer::with_delay_source(2, &calls));
    assert_eq!(
        tape,
        [FISCHER_WRITE_X, DELAY, FISCHER_CHECK_X, FISCHER_EXIT]
    );
    assert_eq!(calls.counts(), [1, 0, 1], "fischer");

    let calls = DelayCalls::default();
    let tape = passage_points(&alg3(&calls));
    assert_eq!(
        tape,
        [RESILIENT_WRITE_X, DELAY, RESILIENT_INNER, RESILIENT_EXIT]
    );
    assert_eq!(calls.counts(), [1, 0, 1], "alg3");

    let tape = passage_points(&StarvationFree::over_lamport_fast(2));
    assert_eq!(tape, [] as [&str; 0], "sf-lamport");

    let calls = DelayCalls::default();
    let tape = passage_points(&RecoverableMutex::new(alg3(&calls), 2));
    let expected = [
        RECOVERABLE_ACQUIRE,
        RESILIENT_WRITE_X,
        DELAY,
        RESILIENT_INNER,
        RECOVERABLE_CS,
        RECOVERABLE_RELEASE,
        RESILIENT_EXIT,
    ];
    assert_eq!(tape, expected);
    assert_eq!(calls.counts(), [1, 0, 1], "recoverable");

    let (calls, space) = (DelayCalls::default(), Interloper::default());
    let tape = passage_points(&Fischer::on_with_delay_source(&space, 2, &calls));
    let expected = [
        FISCHER_WRITE_X,
        DELAY,
        FISCHER_CHECK_X,
        FISCHER_WRITE_X,
        DELAY,
        FISCHER_CHECK_X,
        FISCHER_EXIT,
    ];
    assert_eq!(tape, expected);
    assert_eq!(calls.counts(), [2, 1, 1], "fischer, one failed check");

    let (calls, space) = (DelayCalls::default(), Interloper::default());
    let lock = ResilientMutex::on_with_delay_source(
        &space,
        StarvationFree::over_lamport_fast(2),
        2,
        &calls,
    );
    let tape = passage_points(&lock);
    let expected = [
        RESILIENT_WRITE_X,
        DELAY,
        RESILIENT_WRITE_X,
        DELAY,
        RESILIENT_INNER,
        RESILIENT_EXIT,
    ];
    assert_eq!(tape, expected);
    assert_eq!(calls.counts(), [2, 1, 1], "alg3, one failed check");
}

/// An inner lock that crashes on its first `lock` and counts the calls
/// that get through.
#[derive(Default)]
struct Bomb {
    locks: AtomicU64,
    unlocks: AtomicU64,
}

impl RawLock for Bomb {
    fn lock(&self, _pid: ProcId) {
        if self.locks.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("crash");
        }
    }
    fn unlock(&self, _pid: ProcId) {
        self.unlocks.fetch_add(1, Ordering::SeqCst);
    }
    fn n(&self) -> usize {
        1
    }
    fn name(&self) -> &'static str {
        "bomb"
    }
}

#[test]
fn an_unwound_native_lock_call_leaves_the_slot_usable() {
    // An injected crash unwinds out of `lock` at an injection point; an
    // inner lock that panics on its first entry stands in for it. The
    // next passage starts from a fresh state and exits from its own.
    let lock = Derived::of(Opaque(Bomb::default()));
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lock.lock(ProcId(0));
    }));
    assert!(crashed.is_err());
    lock.lock(ProcId(0));
    lock.unlock(ProcId(0));
    let bomb = &lock.spec().0;
    assert_eq!(bomb.locks.load(Ordering::SeqCst), 2);
    assert_eq!(bomb.unlocks.load(Ordering::SeqCst), 1);
}

#[test]
fn a_native_lock_holder_may_be_released_from_another_thread() {
    // What `RecoverableMutex::recover` does for a crashed holder.
    let lock = Derived::of(LamportFastSpec::new(2, 0));
    lock.lock(ProcId(0));
    std::thread::scope(|s| s.spawn(|| lock.unlock(ProcId(0))).join().unwrap());
    lock.lock(ProcId(1));
    lock.unlock(ProcId(1));
}

#[test]
#[should_panic(expected = "pid out of range")]
fn a_native_lock_rejects_an_out_of_range_pid() {
    Derived::of(LamportFastSpec::new(2, 0)).lock(ProcId(2));
}
