//! Large-n *simulated* chaos: timing-failure storms and crash waves at
//! 10^5–10^6 processes, driven through the scaled `tfr-sim` engine.
//!
//! The rest of this crate injects faults into native threads, which tops
//! out at core count. This module scripts the same adversities —
//! windowed timing storms, crash waves — as seeded **simulated**
//! scenarios over the timer-wheel scheduler, where a million processes
//! are affordable. Everything is a pure function of `(seed, config)`, so
//! a storm that exposes a bug replays exactly.
//!
//! The Δ-sweep runner ([`delta_sweep`]) is the workhorse of experiment
//! E25: the same seeded storm executed at several Δ bounds, counting the
//! paper's timing failures (accesses slower than Δ) at each — at scale,
//! in seconds.

use tfr_registers::rng::SplitMix64;
use tfr_registers::{Delta, ProcId, Ticks};
use tfr_sim::timing::{CrashSchedule, FailureWindows, UniformAccess, Window};
use tfr_sim::workload::ScaleLoop;
use tfr_sim::{RunConfig, RunResult, Sim};

/// Shape of a seeded large-n storm.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Process count.
    pub n: usize,
    /// The Δ bound timing failures are counted against.
    pub delta: Delta,
    /// Rounds each process works ([`ScaleLoop`] rounds).
    pub rounds: u32,
    /// Number of slowdown windows (storm bursts).
    pub bursts: usize,
    /// Length of each burst, in Δ units.
    pub burst_deltas: u64,
    /// During a burst, access times inflate to up to this many Δ —
    /// values above 1 manufacture timing failures.
    pub inflate_deltas: u64,
    /// Processes crashed per mille (0..=1000), spread over the run.
    pub crash_per_mille: u32,
}

impl StormConfig {
    /// A storm over `n` processes with bound `delta` and moderate
    /// defaults: 3 rounds, 4 bursts of 20Δ inflating to 4Δ, 1‰ crashes.
    pub fn new(n: usize, delta: Delta) -> StormConfig {
        StormConfig {
            n,
            delta,
            rounds: 3,
            bursts: 4,
            burst_deltas: 20,
            inflate_deltas: 4,
            crash_per_mille: 1,
        }
    }

    /// Overrides the per-process round count.
    pub fn rounds(mut self, rounds: u32) -> StormConfig {
        self.rounds = rounds;
        self
    }
}

/// The composed timing model of a storm: uniform base access times,
/// inflated inside seeded windows, under a seeded crash wave.
pub type StormModel = CrashSchedule<FailureWindows<UniformAccess>>;

/// Builds the seeded storm timing model: base accesses in
/// `[Δ/4, Δ]` (failure-free), [`StormConfig::bursts`] windows in which
/// every access inflates to `inflate·Δ`, and a crash wave hitting
/// `crash_per_mille` of the processes at seeded instants.
pub fn storm_model(seed: u64, cfg: &StormConfig) -> StormModel {
    let d = cfg.delta.ticks().0;
    let mut rng = SplitMix64::new(seed ^ 0x5701_1111);
    // Bursts spread over the run's actual span: a ScaleLoop round is
    // three accesses (each ≤ Δ) plus ≤ 64 ticks of jitter, so ~4Δ.
    let horizon = (cfg.rounds as u64).max(1) * 4 * d;
    let mut windows = Vec::with_capacity(cfg.bursts);
    for _ in 0..cfg.bursts {
        let start = rng.random_range(0..=horizon);
        let len = cfg.burst_deltas * d;
        windows.push(Window {
            from: Ticks(start),
            to: Ticks(start.saturating_add(len)),
            pids: None,
            inflated: Ticks((cfg.inflate_deltas * d).max(d + 1)),
        });
    }
    let base = UniformAccess::new(Ticks((d / 4).max(1)), Ticks(d), rng.next_u64());
    let stormy = FailureWindows::new(base, windows);
    let crashes = (cfg.n as u64 * cfg.crash_per_mille as u64 / 1000) as usize;
    let mut wave = Vec::with_capacity(crashes);
    for _ in 0..crashes {
        let pid = ProcId(rng.random_range(0..=(cfg.n as u64 - 1)) as usize);
        let at = Ticks(rng.random_range(0..=horizon));
        wave.push((pid, at));
    }
    CrashSchedule::new(stormy, wave)
}

/// Runs one seeded storm on the timer-wheel engine and returns the full
/// result. The workload is a group-local [`ScaleLoop`] (groups of 64),
/// so the run also exercises register traffic at scale.
pub fn run_storm(seed: u64, cfg: &StormConfig) -> RunResult {
    let model = storm_model(seed, cfg);
    let workload = ScaleLoop::new(cfg.rounds, 64.min(cfg.n), 0).salt(seed);
    let config = RunConfig::new(cfg.n, cfg.delta);
    Sim::new(workload, config, model).run()
}

/// One point of a Δ-sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// The Δ bound this run counted failures against.
    pub delta: Delta,
    /// Timing failures observed (accesses slower than Δ).
    pub timing_failures: u64,
    /// Linearized events.
    pub steps: u64,
    /// Processes that crashed.
    pub crashed: usize,
    /// Virtual end time.
    pub end_time: Ticks,
    /// Whether the run was truncated by a budget (should be false —
    /// budgets scale with n).
    pub timed_out: bool,
}

/// Sweeps the *same* seeded storm across several Δ bounds: the access
/// time distribution is pinned by `(seed, base_delta)`, so shrinking Δ
/// strictly grows the timing-failure count — the paper's model in one
/// table. Each Δ is a full fresh run at `cfg.n` processes.
pub fn delta_sweep(seed: u64, cfg: &StormConfig, deltas: &[Delta]) -> Vec<SweepPoint> {
    deltas
        .iter()
        .map(|&delta| {
            // Keep the storm's absolute timings fixed (built from the
            // config Δ); only the counting bound changes.
            let model = storm_model(seed, cfg);
            let workload = ScaleLoop::new(cfg.rounds, 64.min(cfg.n), 0).salt(seed);
            let config = RunConfig::new(cfg.n, delta).max_time(cfg.delta.times(100_000));
            let r = Sim::new(workload, config, model).run();
            SweepPoint {
                delta,
                timing_failures: r.timing_failures,
                steps: r.steps,
                crashed: r.crashed.iter().filter(|&&c| c).count(),
                end_time: r.end_time,
                timed_out: r.timed_out,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_sim::sched::HeapScheduler;

    #[test]
    fn storms_are_seed_deterministic() {
        let cfg = StormConfig::new(500, Delta::from_ticks(100));
        let a = run_storm(11, &cfg);
        let b = run_storm(11, &cfg);
        assert_eq!(a, b, "same seed, same storm");
        let c = run_storm(12, &cfg);
        assert_ne!(a.obs, c.obs, "different seed, different storm");
    }

    #[test]
    fn storms_manufacture_timing_failures_and_crashes() {
        let mut cfg = StormConfig::new(2_000, Delta::from_ticks(100));
        cfg.crash_per_mille = 10;
        let r = run_storm(3, &cfg);
        assert!(!r.timed_out, "scaled budgets must not truncate the storm");
        assert!(r.timing_failures > 0, "bursts inflate past Δ");
        let crashed = r.crashed.iter().filter(|&&c| c).count();
        assert!(crashed > 0 && crashed <= 20, "≈10‰ crash wave: {crashed}");
    }

    #[test]
    fn delta_sweep_is_monotone_in_delta() {
        let cfg = StormConfig::new(1_000, Delta::from_ticks(100));
        let deltas: Vec<Delta> = [25u64, 50, 100, 200, 400]
            .iter()
            .map(|&t| Delta::from_ticks(t))
            .collect();
        let points = delta_sweep(21, &cfg, &deltas);
        assert_eq!(points.len(), 5);
        for pair in points.windows(2) {
            assert!(
                pair[0].timing_failures >= pair[1].timing_failures,
                "shrinking Δ cannot reduce failures: {pair:?}"
            );
        }
        assert!(points[0].timing_failures > points[4].timing_failures);
        assert!(points.iter().all(|p| !p.timed_out));
    }

    /// Storms too are scheduler-independent — chaos results replay
    /// identically on the heap reference.
    #[test]
    fn storm_agrees_across_schedulers() {
        let cfg = StormConfig::new(300, Delta::from_ticks(100));
        let sim = || {
            let model = storm_model(5, &cfg);
            let workload = ScaleLoop::new(cfg.rounds, 64, 0).salt(5);
            let config = RunConfig::new(cfg.n, cfg.delta).record_trace();
            Sim::new(workload, config, model)
        };
        assert_eq!(sim().run(), sim().run_on(HeapScheduler::new()));
    }
}
