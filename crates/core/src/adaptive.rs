//! The practical `optimistic(Δ)` machinery (§1.2, §3.3 of the paper).
//!
//! The true Δ of a real machine must cover preemption, page faults and
//! contention, making it enormous — and timing-based algorithms that delay
//! by Δ even without contention would be hopeless. Because the paper's
//! algorithms are *resilient* to timing failures, they can instead run
//! with an **optimistic estimate** of Δ: a too-small estimate costs
//! retries/extra rounds, never correctness. The paper suggests tuning the
//! estimate over time "similar to TCP congestion control".
//!
//! [`AimdPolicy`] is that tuner, in pure form (used by the simulator
//! experiments, in tick units): **multiplicative increase** of the
//! estimate when a timing failure is suspected (a Fischer retry, an extra
//! consensus round), **additive decrease** after a streak of clean
//! operations — the mirror image of TCP's AIMD, because here *smaller* is
//! the aggressive direction. [`AdaptiveDelta`] is the thread-safe
//! nanosecond-unit wrapper that native locks plug in via [`DelaySource`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
pub use tfr_asynclock::DelaySource;
use tfr_registers::chaos;
use tfr_telemetry::{EventKind, Trace};

/// Pure AIMD-style estimator over abstract units (ticks or nanoseconds).
///
/// * `on_failure()` — multiplicative increase: `current := min(current × 2,
///   max)`; resets the success streak.
/// * `on_success()` — after `streak_needed` consecutive successes,
///   additive decrease: `current := max(current − step, min)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AimdPolicy {
    current: u64,
    min: u64,
    max: u64,
    step: u64,
    streak_needed: u32,
    streak: u32,
}

impl AimdPolicy {
    /// A policy starting at `initial`, clamped to `[min, max]`, decreasing
    /// by `step` after `streak_needed` clean operations.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0`, `min > max`, `step == 0`, or
    /// `streak_needed == 0`.
    pub fn new(initial: u64, min: u64, max: u64, step: u64, streak_needed: u32) -> AimdPolicy {
        assert!(min > 0, "minimum estimate must be positive");
        assert!(min <= max, "min must not exceed max");
        assert!(step > 0, "decrease step must be positive");
        assert!(streak_needed > 0, "streak must be positive");
        AimdPolicy {
            current: initial.clamp(min, max),
            min,
            max,
            step,
            streak_needed,
            streak: 0,
        }
    }

    /// The current estimate.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Evidence the estimate is too small (a retry / an extra round).
    pub fn on_failure(&mut self) {
        self.current = (self.current.saturating_mul(2)).min(self.max);
        self.streak = 0;
    }

    /// A clean fast-path operation.
    pub fn on_success(&mut self) {
        self.streak += 1;
        if self.streak >= self.streak_needed {
            self.current = self.current.saturating_sub(self.step).max(self.min);
            self.streak = 0;
        }
    }
}

/// Thread-safe adaptive `optimistic(Δ)` estimator in nanoseconds,
/// pluggable into native locks as a [`DelaySource`].
///
/// Unlike the pure [`AimdPolicy`], the decrease here is *proportional*
/// (12.5% per clean streak, with a floor-unit minimum): starting from a
/// pessimistic multi-millisecond estimate it reaches the microsecond
/// regime within a few dozen clean streaks — and the descent accelerates
/// itself, because a smaller delay means more operations per second.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use tfr_core::adaptive::{AdaptiveDelta, DelaySource};
///
/// let est = AdaptiveDelta::new(
///     Duration::from_micros(10),  // optimistic start
///     Duration::from_micros(1),   // floor
///     Duration::from_millis(10),  // ceiling (the pessimistic true Δ)
/// );
/// est.on_contended(); // suspected timing failure: estimate doubles
/// assert_eq!(est.current_delay(), Duration::from_micros(20));
/// ```
#[derive(Debug)]
pub struct AdaptiveDelta {
    current_ns: AtomicU64,
    min_ns: u64,
    max_ns: u64,
    step_ns: u64,
    streak_needed: u32,
    streak: AtomicU64,
    trace: Trace,
}

impl AdaptiveDelta {
    /// Streak length before probing downward.
    const DEFAULT_STREAK: u32 = 8;

    /// An estimator starting at `initial`, kept within `[min, max]`.
    /// The additive decrease step is `min` (one floor-unit per probe).
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or `min > max`.
    pub fn new(initial: Duration, min: Duration, max: Duration) -> AdaptiveDelta {
        let min_ns = min.as_nanos() as u64;
        let max_ns = max.as_nanos() as u64;
        assert!(min_ns > 0, "minimum estimate must be positive");
        assert!(min_ns <= max_ns, "min must not exceed max");
        AdaptiveDelta {
            current_ns: AtomicU64::new((initial.as_nanos() as u64).clamp(min_ns, max_ns)),
            min_ns,
            max_ns,
            step_ns: min_ns,
            streak_needed: Self::DEFAULT_STREAK,
            streak: AtomicU64::new(0),
            trace: Trace::disabled(),
        }
    }

    /// Attaches a telemetry trace: every estimate change emits an
    /// [`EventKind::DeltaChanged`] event (attributed to the calling
    /// thread's registered pid, see `tfr_telemetry::with_pid`).
    pub fn with_trace(mut self, trace: Trace) -> AdaptiveDelta {
        self.trace = trace;
        self
    }

    /// Current estimate in nanoseconds (for telemetry/tests).
    pub fn current_ns(&self) -> u64 {
        self.current_ns.load(Ordering::Relaxed)
    }
}

impl DelaySource for AdaptiveDelta {
    fn current_delay(&self) -> Duration {
        Duration::from_nanos(self.current_ns())
    }

    fn on_contended(&self) {
        chaos::point(chaos::points::ADAPTIVE_CONTENDED);
        self.streak.store(0, Ordering::Relaxed);
        // Double, clamped. A racy double-double under concurrent feedback
        // only makes the estimate more conservative — safe.
        let cur = self.current_ns.load(Ordering::Relaxed);
        let next = cur.saturating_mul(2).min(self.max_ns);
        self.current_ns.store(next, Ordering::Relaxed);
        self.trace.emit_current(EventKind::DeltaChanged {
            estimate_ns: next,
            contended: true,
        });
    }

    fn on_uncontended(&self) {
        chaos::point(chaos::points::ADAPTIVE_UNCONTENDED);
        let s = self.streak.fetch_add(1, Ordering::Relaxed) + 1;
        if s >= self.streak_needed as u64 {
            self.streak.store(0, Ordering::Relaxed);
            let cur = self.current_ns.load(Ordering::Relaxed);
            let step = (cur / 8).max(self.step_ns);
            let next = cur.saturating_sub(step).max(self.min_ns);
            self.current_ns.store(next, Ordering::Relaxed);
            self.trace.emit_current(EventKind::DeltaChanged {
                estimate_ns: next,
                contended: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::rng::SplitMix64;

    #[test]
    fn aimd_failure_doubles_up_to_max() {
        let mut p = AimdPolicy::new(10, 1, 100, 1, 4);
        p.on_failure();
        assert_eq!(p.current(), 20);
        p.on_failure();
        assert_eq!(p.current(), 40);
        p.on_failure();
        assert_eq!(p.current(), 80);
        p.on_failure();
        assert_eq!(p.current(), 100, "clamped at max");
    }

    #[test]
    fn aimd_success_streak_decreases_additively() {
        let mut p = AimdPolicy::new(50, 10, 100, 5, 3);
        p.on_success();
        p.on_success();
        assert_eq!(p.current(), 50, "no change before the streak completes");
        p.on_success();
        assert_eq!(p.current(), 45);
        for _ in 0..100 {
            p.on_success();
        }
        assert_eq!(p.current(), 10, "clamped at min");
    }

    #[test]
    fn aimd_failure_resets_streak() {
        let mut p = AimdPolicy::new(50, 10, 100, 5, 3);
        p.on_success();
        p.on_success();
        p.on_failure();
        p.on_success();
        p.on_success();
        assert_eq!(
            p.current(),
            100,
            "doubled, and the pre-failure streak is gone"
        );
    }

    #[test]
    fn aimd_initial_clamped() {
        assert_eq!(AimdPolicy::new(5, 10, 100, 1, 1).current(), 10);
        assert_eq!(AimdPolicy::new(500, 10, 100, 1, 1).current(), 100);
    }

    #[test]
    #[should_panic(expected = "minimum estimate must be positive")]
    fn aimd_zero_min_rejected() {
        let _ = AimdPolicy::new(1, 0, 10, 1, 1);
    }

    #[test]
    fn adaptive_delta_round_trip() {
        let est = AdaptiveDelta::new(
            Duration::from_micros(10),
            Duration::from_micros(1),
            Duration::from_millis(1),
        );
        assert_eq!(est.current_delay(), Duration::from_micros(10));
        est.on_contended();
        assert_eq!(est.current_delay(), Duration::from_micros(20));
        for _ in 0..8 {
            est.on_uncontended();
        }
        // Proportional decrease: 20µs − 20µs/8 = 17.5µs.
        assert_eq!(est.current_delay(), Duration::from_nanos(17_500));
    }

    #[test]
    fn duration_is_a_fixed_source() {
        let d = Duration::from_micros(7);
        assert_eq!(d.current_delay(), d);
        d.on_contended(); // no-ops
        d.on_uncontended();
        assert_eq!(d.current_delay(), d);
    }

    /// Invariant: the estimate never leaves [min, max] under any feedback
    /// sequence. Randomized over a fixed seed so failures replay exactly.
    #[test]
    fn aimd_stays_in_bounds() {
        let mut rng = SplitMix64::new(0xA14D_0001);
        for _case in 0..64 {
            let initial = rng.random_range(1..=999);
            let min = rng.random_range(1..=99);
            let max = min + rng.random_range(0..=999);
            let mut p = AimdPolicy::new(initial, min, max, 3, 2);
            let ops = rng.random_range(0..=299);
            for _ in 0..ops {
                if rng.random_bool(0.5) {
                    p.on_failure()
                } else {
                    p.on_success()
                }
                assert!(p.current() >= min && p.current() <= max);
            }
        }
    }

    /// Monotone recovery: after enough failures the estimate reaches max;
    /// after enough successes it reaches min.
    #[test]
    fn aimd_converges_to_extremes() {
        let mut rng = SplitMix64::new(0xA14D_0002);
        for _case in 0..64 {
            let min = rng.random_range(1..=49);
            let max = min + rng.random_range(1..=499);
            let mut p = AimdPolicy::new(min, min, max, 1, 1);
            for _ in 0..64 {
                p.on_failure();
            }
            assert_eq!(p.current(), max);
            for _ in 0..(max - min + 1) {
                p.on_success();
            }
            assert_eq!(p.current(), min);
        }
    }

    /// AdaptiveDelta clamps at both bounds: repeated contention saturates
    /// at the ceiling, repeated clean streaks bottom out at the floor, and
    /// further feedback in either direction is a no-op at the bound.
    #[test]
    fn adaptive_delta_clamps_at_bounds() {
        let est = AdaptiveDelta::new(
            Duration::from_micros(10),
            Duration::from_micros(1),
            Duration::from_micros(100),
        );
        for _ in 0..64 {
            est.on_contended();
        }
        assert_eq!(est.current_ns(), 100_000, "saturates at max");
        est.on_contended();
        assert_eq!(est.current_ns(), 100_000, "stays at max");
        for _ in 0..10_000 {
            est.on_uncontended();
        }
        assert_eq!(est.current_ns(), 1_000, "bottoms out at min");
        for _ in 0..16 {
            est.on_uncontended();
        }
        assert_eq!(est.current_ns(), 1_000, "stays at min");
    }

    /// Contention resets the clean streak: 7 clean ops, one contention,
    /// then 7 more clean ops must not trigger the 8-streak decrease.
    #[test]
    fn adaptive_delta_contention_resets_streak() {
        let est = AdaptiveDelta::new(
            Duration::from_micros(10),
            Duration::from_micros(1),
            Duration::from_millis(10),
        );
        for _ in 0..7 {
            est.on_uncontended();
        }
        est.on_contended();
        let doubled = est.current_ns();
        assert_eq!(doubled, 20_000);
        for _ in 0..7 {
            est.on_uncontended();
        }
        assert_eq!(
            est.current_ns(),
            doubled,
            "pre-contention streak must not carry over"
        );
        est.on_uncontended();
        assert!(
            est.current_ns() < doubled,
            "a full fresh streak probes downward"
        );
    }

    /// Concurrent feedback from many threads never drives the estimate out
    /// of [min, max] and leaves the estimator functional.
    #[test]
    fn adaptive_delta_concurrent_feedback_stays_in_bounds() {
        let est = AdaptiveDelta::new(
            Duration::from_micros(50),
            Duration::from_micros(1),
            Duration::from_micros(500),
        );
        std::thread::scope(|s| {
            for t in 0..8usize {
                let est = &est;
                s.spawn(move || {
                    let mut rng = SplitMix64::new(0xA14D_1000 + t as u64);
                    for _ in 0..2_000 {
                        if rng.random_bool(0.3) {
                            est.on_contended();
                        } else {
                            est.on_uncontended();
                        }
                        let ns = est.current_ns();
                        assert!(
                            (1_000..=500_000).contains(&ns),
                            "estimate {ns}ns escaped [min, max] under concurrency"
                        );
                    }
                });
            }
        });
        let ns = est.current_ns();
        assert!((1_000..=500_000).contains(&ns));
    }
}
