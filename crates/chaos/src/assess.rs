//! The §1.3 resilience assessment over *native* executions — the
//! real-thread counterpart of `tfr_core::resilience::assess_mutex`,
//! producing the same three-part [`ResilienceReport`].
//!
//! Conventions: the native time unit is **1 tick = 1 µs** (entry
//! latencies are measured with `Instant` and reported in microsecond
//! ticks), and the convergence yardstick is the shared
//! [`convergence_target`] — so a simulator report and a native report for
//! the same algorithm are directly comparable.

use crate::nemesis::{run_mutex_chaos, EntrySample, MutexChaosConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfr_asynclock::RawLock;
use tfr_core::resilience::{convergence_target, ResilienceReport};
use tfr_registers::chaos::{points, Fault, FaultAction};
use tfr_registers::rng::SplitMix64;
use tfr_registers::{Delta, ProcId, Ticks};
use tfr_telemetry::{convergence_from_events, ConvergenceReport, Trace, Tracer};

/// Parameters of a native resilience assessment.
#[derive(Debug, Clone)]
pub struct NativeAssessConfig {
    /// Number of worker threads.
    pub n: usize,
    /// The `delay(Δ)` estimate handed to the lock under test.
    pub delta: Duration,
    /// Lock acquisitions per thread, per run.
    pub iterations: u64,
    /// Critical-section dwell time.
    pub cs_hold: Duration,
    /// Remainder-section dwell time.
    pub ncs_hold: Duration,
    /// Number of burst stalls injected into the failure run.
    pub burst_stalls: usize,
    /// Burst stalls last `burst_factor × Δ` — choose > 1 so every one is
    /// a genuine timing failure.
    pub burst_factor: u32,
    /// Tolerance numerator (converged ⇔ latency ≤ `num/den·ψ + Δ`).
    pub tolerance_num: u64,
    /// Tolerance denominator.
    pub tolerance_den: u64,
    /// Seed for the burst schedule.
    pub seed: u64,
}

impl NativeAssessConfig {
    /// A reasonable default: 60 acquisitions per thread, short dwells,
    /// 4 early stalls of 8Δ, tolerance 3/2 — mirrors
    /// `tfr_core::resilience::AssessConfig::new`.
    pub fn new(n: usize, delta: Duration) -> NativeAssessConfig {
        NativeAssessConfig {
            n,
            delta,
            iterations: 60,
            cs_hold: Duration::from_micros(30),
            ncs_hold: Duration::from_micros(30),
            burst_stalls: 4,
            burst_factor: 8,
            tolerance_num: 3,
            tolerance_den: 2,
            seed: 42,
        }
    }

    fn workload(&self) -> MutexChaosConfig {
        MutexChaosConfig {
            n: self.n,
            iterations: self.iterations,
            cs_hold: self.cs_hold,
            ncs_hold: self.ncs_hold,
        }
    }
}

/// The burst: `burst_stalls` stalls of `burst_factor × Δ`, aimed at the
/// timing-sensitive points of the first half of the threads (asymmetric,
/// like the simulator assessment — a uniform slowdown is the kindest
/// possible failure), on early visits so the run has a long post-burst
/// tail to converge in.
fn burst_schedule(cfg: &NativeAssessConfig) -> Vec<Fault> {
    let mut rng = SplitMix64::new(cfg.seed);
    let stall = cfg.delta * cfg.burst_factor.max(2);
    let victims = cfg.n.div_ceil(2);
    let points = [
        points::RESILIENT_WRITE_X,
        points::FISCHER_WRITE_X,
        points::DELAY,
    ];
    let mut faults = Vec::new();
    for k in 0..cfg.burst_stalls {
        let f = Fault {
            pid: ProcId(rng.index(victims)),
            point: points[rng.index(points.len())],
            nth: 1 + k as u64,
            action: FaultAction::Stall(stall),
        };
        if !faults
            .iter()
            .any(|g: &Fault| (g.pid, g.point, g.nth) == (f.pid, f.point, f.nth))
        {
            faults.push(f);
        }
    }
    faults
}

/// Earliest post-fault instant from which every later entry meets the
/// target latency, as an offset (µs ticks) from when faults stopped.
fn convergence_from_samples(
    entries: &[EntrySample],
    faults_stopped: Option<Instant>,
    target: Ticks,
) -> Option<Ticks> {
    let Some(stop) = faults_stopped else {
        // Nothing fired: the run never left the ψ regime.
        return Some(Ticks::ZERO);
    };
    let target = Duration::from_micros(target.0);
    let mut tail: Vec<&EntrySample> = entries.iter().filter(|e| e.entered_at >= stop).collect();
    tail.sort_by_key(|e| e.entered_at);
    // The converged suffix: walk back from the end while entries meet the
    // target; the suffix must be nonempty (otherwise the run ended before
    // showing convergence).
    let mut cut = tail.len();
    for i in (0..tail.len()).rev() {
        if tail[i].latency <= target {
            cut = i;
        } else {
            break;
        }
    }
    if cut == tail.len() {
        return None;
    }
    Some(Ticks(
        tail[cut].entered_at.duration_since(stop).as_micros() as u64
    ))
}

/// Runs the §1.3 assessment protocol on a native lock: measure ψ on a
/// fault-free run, inject a stall burst, check safety and liveness across
/// it, and find the measured convergence point after the last fault.
///
/// `make_lock` is called once per run (each run needs a fresh lock) with
/// the [`Trace`] to build into it: disabled for the clean ψ-measurement
/// run, and for the burst run attached to `tracer` when there is one — in
/// which case the convergence time is *also* measured from the event
/// stream, directly exportable next to the timeline it was read off.
/// The report is the same [`ResilienceReport`] the simulator assessment
/// produces, in µs ticks.
///
/// # Panics
///
/// Panics if the fault-free run violates mutual exclusion or fails to
/// complete — an algorithm that cannot run clean is outside the
/// definition's scope.
///
/// # Example
///
/// Algorithm 3 passes the safety and liveness parts of the definition
/// under a burst of 8Δ stalls (convergence is a *measurement* on real
/// hardware, so the doctest does not pin it):
///
/// ```
/// use std::time::Duration;
/// use tfr_chaos::{assess_native_mutex, NativeAssessConfig};
/// use tfr_core::mutex::resilient::ResilientMutex;
///
/// let delta = Duration::from_micros(100);
/// let mut cfg = NativeAssessConfig::new(2, delta);
/// cfg.iterations = 10; // a quick smoke-sized assessment
/// let report = assess_native_mutex(|_| ResilientMutex::standard(2, delta), &cfg, None).report;
/// assert!(report.safe_during_failures, "exclusive even mid-burst");
/// assert!(report.live_after_failures, "every thread finishes");
/// assert!(report.psi.0 >= 1, "ψ is a measured, positive latency");
/// ```
pub fn assess_native_mutex<L: RawLock>(
    mut make_lock: impl FnMut(Trace) -> L,
    cfg: &NativeAssessConfig,
    tracer: Option<&Arc<Tracer>>,
) -> NativeAssessment {
    // Requirement 2: ψ from a fault-free run (still under a session, for
    // isolation from concurrent chaos in the process).
    let clean = run_mutex_chaos(&make_lock(Trace::disabled()), &cfg.workload(), &[], None);
    assert!(
        !clean.mutual_exclusion_violated() && clean.crashed.is_empty(),
        "the fault-free run must be clean"
    );
    assert_eq!(
        clean.completed.len(),
        cfg.n,
        "the fault-free run must complete"
    );
    let psi = Ticks(
        clean
            .max_latency()
            .map_or(1, |d| d.as_micros() as u64)
            .max(1),
    );

    // Requirements 1 + 3: the burst run.
    let burst_lock =
        make_lock(tracer.map_or_else(Trace::disabled, |t| Trace::attached(Arc::clone(t))));
    let burst = run_mutex_chaos(&burst_lock, &cfg.workload(), &burst_schedule(cfg), tracer);
    let safe_during_failures = !burst.mutual_exclusion_violated();
    let live_after_failures = burst.completed.len() == cfg.n;
    let delta = Delta::from_ticks((cfg.delta.as_micros() as u64).max(1));
    let target = convergence_target(psi, delta, cfg.tolerance_num, cfg.tolerance_den);
    let convergence = convergence_from_samples(&burst.entries, burst.last_fault_at, target);
    let target_wait_ns = target.0.saturating_mul(1_000);
    let event_convergence = tracer.map(|t| convergence_from_events(&t.events(), target_wait_ns));

    NativeAssessment {
        report: ResilienceReport {
            psi,
            safe_during_failures,
            live_after_failures,
            convergence,
        },
        event_convergence,
        target_wait_ns,
    }
}

/// An [`assess_native_mutex`] result: the standard three-part report
/// plus, for a traced assessment, the event-stream convergence
/// measurement and the target it was measured against.
#[derive(Debug)]
pub struct NativeAssessment {
    /// The §1.3 report.
    pub report: ResilienceReport,
    /// Convergence measured from the burst run's telemetry events: time
    /// from the last fired fault to the first acquisition whose traced
    /// entry wait meets the target. `None` without a tracer.
    pub event_convergence: Option<ConvergenceReport>,
    /// The entry-wait target used, in nanoseconds
    /// (`convergence_target(ψ, Δ, num, den)` converted from µs ticks).
    pub target_wait_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_schedule_is_deterministic_and_asymmetric() {
        let cfg = NativeAssessConfig::new(4, Duration::from_micros(300));
        let a = burst_schedule(&cfg);
        assert_eq!(a, burst_schedule(&cfg));
        assert!(!a.is_empty());
        for f in &a {
            assert!(f.pid.0 < 2, "burst only hits the first half of the threads");
            match f.action {
                FaultAction::Stall(d) => assert!(d > cfg.delta, "stalls must exceed Δ"),
                _ => panic!("the burst contains no crashes"),
            }
        }
    }

    #[test]
    fn convergence_zero_when_no_fault_fired() {
        assert_eq!(
            convergence_from_samples(&[], None, Ticks(100)),
            Some(Ticks::ZERO)
        );
    }

    #[test]
    fn convergence_found_at_the_first_good_suffix() {
        let base = Instant::now();
        let stop = base + Duration::from_micros(100);
        let mk = |offset_us: u64, latency_us: u64| EntrySample {
            pid: ProcId(0),
            entered_at: stop + Duration::from_micros(offset_us),
            latency: Duration::from_micros(latency_us),
        };
        // A slow entry at +50µs, then fast ones from +80µs on.
        let entries = vec![mk(50, 900), mk(80, 10), mk(120, 12)];
        let c = convergence_from_samples(&entries, Some(stop), Ticks(100));
        assert_eq!(c, Some(Ticks(80)));
    }

    #[test]
    fn traced_assessment_measures_convergence_from_events() {
        use tfr_core::mutex::resilient::ResilientMutex;
        let delta = Duration::from_micros(100);
        let mut cfg = NativeAssessConfig::new(2, delta);
        cfg.iterations = 10;
        let tracer = Arc::new(Tracer::new(2));
        let a = assess_native_mutex(
            |trace| ResilientMutex::standard(2, delta).with_trace(trace),
            &cfg,
            Some(&tracer),
        );
        assert!(a.report.safe_during_failures && a.report.live_after_failures);
        assert!(a.report.psi.0 >= 1);
        assert!(
            a.event_convergence.expect("traced").faults >= 1,
            "the burst must fire at least one fault into the trace"
        );
        assert!(a.target_wait_ns >= 1_000, "target is ψ-derived, in ns");
        // The event stream carries the acquisitions the samples were
        // computed from.
        assert!(!tracer.events().is_empty());
    }

    #[test]
    fn convergence_none_when_the_tail_never_recovers() {
        let base = Instant::now();
        let stop = base;
        let entries = vec![EntrySample {
            pid: ProcId(0),
            entered_at: stop + Duration::from_micros(10),
            latency: Duration::from_millis(50),
        }];
        assert_eq!(
            convergence_from_samples(&entries, Some(stop), Ticks(100)),
            None
        );
    }
}
