//! The differential test tier for the scaled simulator: the timer-wheel
//! scheduler is only allowed to exist because these tests prove it
//! indistinguishable from the reference `BinaryHeap` driver.
//!
//! The headline is a 256-seed battery: every seed builds one seeded
//! workload + timing model (uniform access times, failure windows,
//! crash schedules, slowdown bursts — rotating by seed) and runs it to
//! completion under both schedulers with trace recording on. The full
//! [`RunResult`]s — traces, observations, halt/crash vectors, failure
//! counts, end times — must be **bit-identical**. Seeds are spread
//! across n ∈ {1, 2, 17, 256, 4096} so tie-break-heavy tiny runs and
//! cascade-heavy large runs are both covered, and a slice of the seeds
//! gets tight `max_time`/`max_steps` budgets so truncation edges (the
//! budget-tripping event is dropped, not linearized) agree too.

use tfr::chaos::storm::{run_storm, storm_model, StormConfig};
use tfr::registers::{Delta, ProcId, Ticks};
use tfr::sim::sched::HeapScheduler;
use tfr::sim::timing::{Bursts, CrashSchedule, FailureWindows, TimingModel, UniformAccess, Window};
use tfr::sim::workload::{DelayOnly, ScaleLoop};
use tfr::sim::{RunConfig, RunResult, Sim};

/// Runs the same seeded scenario under both schedulers and asserts the
/// results are bit-identical. Returns one result for further checks.
fn both_schedulers<M: TimingModel + Clone>(
    workload: ScaleLoop,
    config: RunConfig,
    model: M,
    what: &str,
) -> RunResult {
    let wheel = Sim::new(workload.clone(), config.clone(), model.clone()).run();
    let heap = Sim::new(workload, config, model).run_on(HeapScheduler::new());
    assert_eq!(wheel, heap, "wheel diverged from heap: {what}");
    wheel
}

/// The base access-time model every battery variant builds on.
fn base(d: Delta, seed: u64) -> UniformAccess {
    UniformAccess::new(Ticks(d.ticks().0 / 4), Ticks(d.ticks().0 * 2), seed)
}

/// The 256-seed wheel-vs-heap battery. Four timing-model variants
/// rotate by seed; every 5th seed gets a tight `max_time` and every 7th
/// a tight `max_steps`, so scheduler agreement is also proven on
/// truncated runs where the last popped event is dropped.
#[test]
fn differential_battery_256_seeds_wheel_equals_heap() {
    let d = Delta::from_ticks(100);
    let mut seed = 0u64;
    let mut truncated = 0u64;
    for &(n, seeds) in &[(1usize, 64u64), (2, 64), (17, 64), (256, 48), (4096, 16)] {
        for _ in 0..seeds {
            seed += 1;
            let workload = ScaleLoop::new(2, n.min(64), 0).salt(seed);
            let mut config = RunConfig::new(n, d).record_trace();
            if seed.is_multiple_of(5) {
                config = config.max_time(Ticks(3 + seed % 97));
            }
            if seed.is_multiple_of(7) {
                config = config.max_steps(1 + seed % 53);
            }
            let what = format!("seed {seed}, n {n}");
            let result = match seed % 4 {
                0 => both_schedulers(workload, config, base(d, seed), &what),
                1 => {
                    let windows = vec![Window {
                        from: Ticks(seed % 50),
                        to: Ticks(seed % 50 + 120),
                        pids: (n > 2).then(|| vec![ProcId(0), ProcId(seed as usize % n)]),
                        inflated: Ticks(d.ticks().0 * 3),
                    }];
                    let model = FailureWindows::new(base(d, seed), windows);
                    both_schedulers(workload, config, model, &what)
                }
                2 => {
                    let crashes: Vec<(ProcId, Ticks)> = (0..n.min(5))
                        .map(|i| (ProcId((seed as usize + i) % n), Ticks(20 + 30 * i as u64)))
                        .collect();
                    let model = CrashSchedule::new(base(d, seed), crashes);
                    both_schedulers(workload, config, model, &what)
                }
                _ => {
                    let model = Bursts::new(
                        base(d, seed),
                        Ticks(d.ticks().0 * 4),
                        Ticks(d.ticks().0),
                        Ticks(d.ticks().0 * 3),
                    );
                    both_schedulers(workload, config, model, &what)
                }
            };
            if result.timed_out {
                // A cutoff below the first completion legitimately
                // linearizes nothing; agreement is what's under test.
                truncated += 1;
            } else {
                assert!(result.steps > 0, "seed {seed} linearized nothing");
            }
        }
    }
    assert_eq!(seed, 256, "the battery must cover exactly 256 seeds");
    assert!(
        truncated > 20,
        "the tight budgets must actually exercise truncation edges (got {truncated})"
    );
}

/// Dense sweep of the truncation boundary itself: every `max_steps` in
/// [0, 40) and a grid of `max_time` cutoffs, wheel vs heap. The budget
/// semantics (budget-tripping event dropped, resume-exact pauses) are
/// where a scheduler swap would most plausibly diverge.
#[test]
fn truncation_edges_agree_at_every_budget() {
    let d = Delta::from_ticks(100);
    for max_steps in 0..40 {
        let config = RunConfig::new(17, d).record_trace().max_steps(max_steps);
        both_schedulers(
            ScaleLoop::new(3, 17, 0).salt(max_steps),
            config,
            base(d, max_steps),
            &format!("max_steps {max_steps}"),
        );
    }
    for i in 0..30 {
        let cutoff = Ticks(7 * i);
        let config = RunConfig::new(17, d).record_trace().max_time(cutoff);
        both_schedulers(
            ScaleLoop::new(3, 17, 0).salt(i),
            config,
            base(d, i),
            &format!("max_time {cutoff:?}"),
        );
    }
}

/// The chaos storm (bursty slowdowns + a crash wave at large n) agrees
/// across schedulers at a moderate n with traces on — the same model
/// the E25 million-process sweep runs, at a size debug builds afford.
#[test]
fn storm_differential_with_traces() {
    let cfg = StormConfig::new(1_500, Delta::from_ticks(80));
    for seed in [3u64, 17, 0xE25] {
        both_schedulers(
            ScaleLoop::new(2, 64, 0).salt(seed),
            RunConfig::new(cfg.n, cfg.delta).record_trace(),
            storm_model(seed, &cfg),
            &format!("storm seed {seed}"),
        );
    }
}

/// Large-n smoke: fifty thousand processes complete a delay workload
/// under the *default* budgets on both schedulers — the max_steps
/// budget scales with n instead of silently truncating big runs.
#[test]
fn large_n_smoke_under_default_budgets() {
    let d = Delta::from_ticks(100);
    let sim = || {
        Sim::new(
            DelayOnly::new(4, 1, 512).salt(9),
            RunConfig::new(50_000, d).max_time(Ticks::NEVER),
            tfr::sim::timing::Fixed::new(Ticks(1)),
        )
    };
    let wheel = sim().run();
    let heap = sim().run_on(HeapScheduler::new());
    assert_eq!(wheel, heap);
    assert!(
        !wheel.timed_out,
        "default budgets must not truncate at n=50k"
    );
    assert!(wheel.all_halted());
    assert_eq!(wheel.steps, 50_000 * 4);
    // The scaling rule itself, at sizes the test cannot afford to run:
    // a million processes get a billion steps, not the old flat cap.
    assert_eq!(RunConfig::new(1_000_000, d).max_steps, 1_000_000_000);
    assert!(RunConfig::new(1_000_000, d).max_steps >= 1_000_000 * 100);
}

/// `run_storm` statistics at n = 2 000, pinned to values recorded at
/// earlier commits:
///
/// * with a 5 % crash wave (100 crash entries, some pids drawn twice), as
///   the scanning `CrashSchedule` produced them before the schedule became
///   an indexed lookup: the index must decide every crash exactly as the
///   scan did;
/// * in `ledger`'s `sim_storm` shape (one round, 32 bursts of 1Δ), as the
///   engine produced them on its copy-on-write register file: the shape
///   the benchmark runs at 10^6 processes, checked here in tier-1.
#[test]
fn storm_statistics_pinned_across_the_crash_schedule_index() {
    let mut crash_wave = StormConfig::new(2_000, Delta::from_ticks(100));
    crash_wave.crash_per_mille = 50;
    let mut bench_shape = StormConfig::new(2_000, Delta::from_ticks(100)).rounds(1);
    bench_shape.bursts = 32;
    bench_shape.burst_deltas = 1;
    // (config, seed, steps, timing_failures, end_time, crashed)
    let pinned: [(&StormConfig, u64, u64, u64, u64, usize); 5] = [
        (&crash_wave, 1, 23_522, 6_753, 3_547, 96),
        (&crash_wave, 42, 23_239, 11_487, 3_549, 99),
        (&crash_wave, 0xE25, 23_691, 1_113, 2_208, 67),
        (&bench_shape, 1, 7_995, 3_946, 961, 2),
        (&bench_shape, 42, 7_996, 3_542, 945, 2),
    ];
    for (cfg, seed, steps, timing_failures, end_time, crashed) in pinned {
        let what = format!("storm seed {seed}, {cfg:?}");
        let r = run_storm(seed, cfg);
        assert!(!r.timed_out, "{what} was cut off by a budget");
        let got = (
            r.steps,
            r.timing_failures,
            r.end_time.0,
            r.crashed.iter().filter(|&&c| c).count(),
        );
        assert_eq!(got, (steps, timing_failures, end_time, crashed), "{what}");
    }
}
