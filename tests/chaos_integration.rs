//! End-to-end chaos harness tests over the native stack: the paper's §2
//! Fischer violation reproduced on real threads from a printed seed, the
//! resilient algorithms surviving the same schedules, crash-stops leaving
//! shared state usable, shrinking, and the native resilience assessment.

use std::time::Duration;
use tfr::asynclock::RawLock;
use tfr::chaos::nemesis::{self, run_consensus_chaos, run_mutex_chaos, MutexChaosConfig};
use tfr::chaos::{
    assess_native_mutex, random_schedule, shrink, NativeAssessConfig, ScheduleConfig,
};
use tfr::core::consensus::NativeConsensus;
use tfr::core::mutex::resilient::ResilientMutex;
use tfr::registers::chaos::{points, Fault, FaultAction};
use tfr::registers::ProcId;

/// The headline: a seeded stall in Fischer's read→write window longer
/// than Δ puts two real threads into the critical section at once — and
/// the same seed replays the same violation.
#[test]
fn fischer_violation_reproduces_deterministically_from_a_seed() {
    let (seed, first) = nemesis::hunt_fischer_violation(0xF15C, 16)
        .expect("the violation construction must find a seed quickly");
    assert!(first.mutual_exclusion_violated());
    assert!(first.max_in_cs >= 2, "two threads inside at once");
    // The stall that fired exceeded the Δ the lock was configured with.
    let setup = nemesis::violation_setup_from_seed(seed);
    let stalled = first
        .fired
        .iter()
        .find(|f| f.fault.point == points::FISCHER_WRITE_X)
        .expect("the write-x stall must have fired");
    match stalled.fault.action {
        FaultAction::Stall(d) => assert!(d > setup.delta, "stall {d:?} must exceed Δ"),
        FaultAction::Crash | FaultAction::CrashRecover(_) => {
            panic!("the violation schedule stalls, it does not crash")
        }
    }

    // Replay: the printed seed is the whole experiment.
    let (_, second) = nemesis::run_fischer_violation(seed);
    assert!(
        second.mutual_exclusion_violated(),
        "seed {seed} must replay the violation"
    );
    let (_, third) = nemesis::run_fischer_violation(seed);
    assert!(
        third.mutual_exclusion_violated(),
        "seed {seed} must replay every time"
    );
}

/// Algorithm 3 under the *same* seed-derived schedule (stall aimed at its
/// identical read→write window): mutual exclusion holds and the workload
/// completes. This is resilience, falsifiably.
#[test]
fn resilient_mutex_survives_the_fischer_breaking_schedule() {
    let (seed, _) = nemesis::hunt_fischer_violation(0xA1C3, 16).expect("a violating seed");
    let report = nemesis::run_resilient_under_violation_schedule(seed);
    assert!(
        !report.mutual_exclusion_violated(),
        "Algorithm 3 broke under seed {seed}"
    );
    assert_eq!(report.max_in_cs, 1);
    assert_eq!(report.completed.len(), 2, "both threads finish");
    assert!(!report.fired.is_empty(), "the schedule did fire");
}

/// Algorithm 1 keeps agreement and validity under randomized stall+crash
/// schedules — crashes legal anywhere, it is wait-free.
#[test]
fn consensus_safe_under_random_fault_schedules() {
    let delta = Duration::from_micros(200);
    for seed in 0..12 {
        let n = 2 + (seed as usize % 3);
        let inputs: Vec<bool> = (0..n).map(|i| (seed >> i) & 1 == 1).collect();
        let faults = random_schedule(seed, &ScheduleConfig::consensus(n, delta));
        let report = run_consensus_chaos(delta, &inputs, &faults, None);
        assert!(
            report.agreement,
            "seed {seed}: agreement violated: {report:?}"
        );
        assert!(
            report.validity,
            "seed {seed}: validity violated: {report:?}"
        );
        assert_eq!(
            report.decisions.len() + report.crashed.len(),
            n,
            "seed {seed}: every proposer completes or crashes"
        );
        // Wait-freedom: survivors always decide, whoever crashed.
        if !report.decisions.is_empty() {
            assert!(report.final_decision.is_some(), "seed {seed}");
        }
    }
}

/// The resilient mutex under randomized mutex schedules (stalls in every
/// timing-sensitive window, crash-stops between iterations): safety
/// always, and the *survivors* always finish — a crashed thread never
/// poisons the shared state.
#[test]
fn crashed_mutex_threads_never_poison_survivors() {
    let delta = Duration::from_micros(150);
    let mut saw_crash = false;
    for seed in 0..10 {
        let n = 3;
        let lock = ResilientMutex::standard(n, delta);
        let mut cfg = MutexChaosConfig::new(n);
        cfg.iterations = 12;
        let faults = random_schedule(seed, &ScheduleConfig::mutex(n, delta));
        let report = run_mutex_chaos(&lock, &cfg, &faults, None);
        assert!(!report.mutual_exclusion_violated(), "seed {seed}");
        assert_eq!(
            report.completed.len() + report.crashed.len(),
            n,
            "seed {seed}: no thread may hang"
        );
        saw_crash |= !report.crashed.is_empty();
        // Shared state stays usable after the run: a fresh single-threaded
        // pass over the same lock instance must still work.
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));
    }
    assert!(
        saw_crash,
        "the seeds above must include at least one crash schedule"
    );
}

/// Greedy shrinking of a real failing schedule: noise faults are removed,
/// the essential write-x stall survives, and the result still breaks
/// Fischer.
#[test]
fn shrinking_reduces_a_violating_schedule_to_its_essence() {
    let (seed, _) = nemesis::hunt_fischer_violation(0x5417, 16).expect("a violating seed");
    let setup = nemesis::violation_setup_from_seed(seed);

    // Pad the real schedule with noise that cannot matter.
    let mut padded = setup.faults.clone();
    padded.push(Fault {
        pid: ProcId(0),
        point: points::ARRAY_LOAD,
        nth: 50,
        action: FaultAction::Stall(Duration::from_micros(100)),
    });
    padded.push(Fault {
        pid: ProcId(1),
        point: points::FISCHER_EXIT,
        nth: 9,
        action: FaultAction::Stall(Duration::from_micros(100)),
    });

    let still_fails = |faults: &[Fault]| {
        let lock = tfr::core::mutex::fischer::Fischer::new(2, setup.delta);
        run_mutex_chaos(&lock, &setup.config, faults, None).mutual_exclusion_violated()
    };
    assert!(
        still_fails(&padded),
        "the padded schedule must still violate"
    );
    let minimal = shrink(padded, still_fails);

    assert!(
        minimal.len() < setup.faults.len() + 2,
        "noise must be gone: {minimal:?}"
    );
    assert!(
        minimal.iter().any(|f| f.point == points::FISCHER_WRITE_X),
        "the write-x stall is the essence: {minimal:?}"
    );
    assert!(still_fails(&minimal), "the minimal schedule still violates");
}

/// The native §1.3 assessment: Algorithm 3 measures as resilient — safe
/// across the burst, live after it, and converged back to its ψ band.
#[test]
fn native_assessment_reports_algorithm_3_resilient() {
    let delta = Duration::from_micros(200);
    let cfg = NativeAssessConfig::new(3, delta);
    let report = assess_native_mutex(|_| ResilientMutex::standard(3, delta), &cfg, None).report;
    assert!(report.safe_during_failures, "{report}");
    assert!(report.live_after_failures, "{report}");
    assert!(report.convergence.is_some(), "{report}");
    assert!(report.resilient(), "{report}");
}

/// Consensus decided values survive crash-stops right before the decide
/// write: either the crasher's write landed (fine) or it did not (fine),
/// but survivors always agree.
#[test]
fn crash_at_the_decide_write_cannot_break_agreement() {
    let delta = Duration::from_micros(100);
    for nth in 1..=2 {
        let faults = [Fault {
            pid: ProcId(0),
            point: points::CONSENSUS_DECIDE,
            nth,
            action: FaultAction::Crash,
        }];
        let report = run_consensus_chaos(delta, &[true, false, false], &faults, None);
        assert!(report.agreement, "nth={nth}: {report:?}");
        assert!(report.validity, "nth={nth}: {report:?}");
        assert_eq!(report.decisions.len() + report.crashed.len(), 3);
    }
    // The shared object remains usable by late arrivals.
    let c = NativeConsensus::new(delta);
    let v = c.propose(true);
    assert_eq!(c.decision(), Some(v));
}

/// Cross-stack replay: the exhaustive explorer's abstract Fischer
/// counterexample (`tfr_core::verify::fischer_counterexample`, found by
/// DPOR + symmetry over the spec-form lock) compiles into a native fault
/// schedule that makes two real threads share the critical section — the
/// same violation, reproduced deterministically on both tiers.
#[test]
fn model_counterexample_replays_on_the_native_stack() {
    use tfr::chaos::fischer_faults_from_counterexample;
    use tfr::core::mutex::fischer::{Fischer, FischerSpec};
    use tfr::registers::Ticks;

    let cex = tfr::core::verify::fischer_counterexample(2).expect("Fischer must break");
    // The abstract schedule is itself replayable at the model level...
    let model = tfr::modelcheck::replay_schedule(
        &tfr::core::verify::fischer_workload(2),
        2,
        &tfr::modelcheck::SafetySpec::mutex(),
        &cex.schedule,
    );
    assert_eq!(model.as_ref(), Some(&cex.violation));

    // ...and compiles to stalls that reproduce it natively, every run.
    let x = FischerSpec::new(2, 0, Ticks(100)).x();
    let compiled = fischer_faults_from_counterexample(&cex, 2, x, Duration::from_micros(500));
    for run in 0..2 {
        let lock = Fischer::new(2, compiled.delta);
        let report = run_mutex_chaos(&lock, &compiled.config, &compiled.faults, None);
        assert!(
            report.mutual_exclusion_violated(),
            "run {run}: native replay must reproduce the model violation"
        );
        assert!(report.max_in_cs >= 2, "run {run}: two threads inside");
        // The stalls the compiler scheduled actually fired.
        assert!(report
            .fired
            .iter()
            .any(|f| f.fault.point == points::FISCHER_WRITE_X));
    }
}
