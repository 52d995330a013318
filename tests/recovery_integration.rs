//! End-to-end acceptance for the crash-recovery stack: the recoverable
//! mutex at real contention (n = 8) under fifty seeded recovery-nemesis
//! schedules — crash-recoveries landing inside and outside the critical
//! section, workers rejoining mid-workload as new incarnations — with
//! zero mutual-exclusion violations, plus seed-replay determinism and
//! the cross-tier agreement of the linearizability oracle.

use std::time::Duration;
use tfr::chaos::recovery::RecoveryChaosReport;
use tfr::chaos::{random_schedule, run_recovery_chaos, MutexChaosConfig, ScheduleConfig};
use tfr::core::mutex::recoverable::RecoverableMutex;
use tfr::linearize::{check_history, record_recoverable_lock, RecoverableLockModel};
use tfr::registers::chaos::{Fault, FaultAction};

const N: usize = 8;

fn delta() -> Duration {
    Duration::from_micros(100)
}

fn cfg() -> MutexChaosConfig {
    MutexChaosConfig {
        n: N,
        iterations: 8,
        cs_hold: Duration::from_micros(25),
        ncs_hold: Duration::from_micros(25),
    }
}

fn run_seed(seed: u64) -> (Vec<Fault>, RecoveryChaosReport) {
    let faults = random_schedule(seed, &ScheduleConfig::recoverable_mutex(N, delta()));
    let lock = RecoverableMutex::standard(N, delta());
    let report = run_recovery_chaos(&lock, &cfg(), &faults, None);
    (faults, report)
}

/// The tentpole acceptance sweep: fifty seeded schedules at n = 8, each
/// drawing up to six faults (stalls, crash-stops in the remainder, and
/// crash-recoveries across the whole recoverable surface). Mutual
/// exclusion must hold on every seed, every completed worker must have
/// done its full passage count, and — across the sweep — the schedules
/// must actually exercise the interesting case: recoveries that found an
/// orphaned critical section and repaired it.
#[test]
fn fifty_seeded_recovery_schedules_stay_exclusive_at_n8() {
    let mut total_recoveries = 0usize;
    let mut total_cs_repairs = 0usize;
    let mut total_crash_recovers = 0usize;
    for seed in 0..50u64 {
        let (faults, report) = run_seed(seed);
        assert!(
            !report.mutual_exclusion_violated(),
            "seed {seed}: {} intrusions, max {} in CS",
            report.intrusions,
            report.max_in_cs
        );
        assert!(
            report.completed.len() + report.crashed.len() == N,
            "seed {seed}: every worker either completes or crash-stops"
        );
        total_recoveries += report.recoveries.len();
        total_cs_repairs += report.cs_repairs();
        total_crash_recovers += faults
            .iter()
            .filter(|f| matches!(f.action, FaultAction::CrashRecover(_)))
            .count();
    }
    assert!(
        total_crash_recovers >= 50,
        "the sweep must be crash-recover heavy (got {total_crash_recovers})"
    );
    assert!(
        total_recoveries >= 25,
        "plenty of incarnations must actually restart (got {total_recoveries})"
    );
    assert!(
        total_cs_repairs >= 5,
        "the sweep must hit the orphaned-CS case (got {total_cs_repairs})"
    );
}

/// Determinism: the schedule is a pure function of the seed, and the
/// run's *logical* outcome — which faults fired, how many incarnations
/// restarted, how many repairs happened — replays with it. (Wall-clock
/// latencies differ run to run; the logical trace must not.)
#[test]
fn recovery_runs_replay_deterministically_by_seed() {
    for seed in [7u64, 19, 33] {
        let (faults_a, a) = run_seed(seed);
        let (faults_b, b) = run_seed(seed);
        assert_eq!(faults_a, faults_b, "seed {seed}: schedules must match");
        assert_eq!(
            a.recoveries.len(),
            b.recoveries.len(),
            "seed {seed}: same incarnation restarts"
        );
        assert_eq!(
            a.cs_repairs(),
            b.cs_repairs(),
            "seed {seed}: same repair verdicts"
        );
        assert_eq!(
            a.fired.len(),
            b.fired.len(),
            "seed {seed}: same faults fired"
        );
        let crashed_a: Vec<_> = a.crashed.clone();
        assert_eq!(crashed_a, b.crashed, "seed {seed}: same crash-stops");
    }
}

/// Cross-tier agreement: the same seeded schedule shape, recorded as a
/// concurrent history and checked against the sequential
/// [`RecoverableLockModel`] — every recovery's repair verdict must
/// linearize (a `repair → 1` is a release on the dead incarnation's
/// behalf). Ten seeds, smaller n so the exponential checker stays fast.
#[test]
fn recorded_recovery_histories_are_linearizable() {
    let mut with_recovery = 0usize;
    for seed in 0..10u64 {
        let faults = random_schedule(seed, &ScheduleConfig::recoverable_mutex(3, delta()));
        let history = record_recoverable_lock(3, 3, delta(), &faults);
        let recoveries = history
            .ops
            .iter()
            .filter(|o| o.op % 3 == 2 && o.is_complete())
            .count();
        with_recovery += usize::from(recoveries > 0);
        check_history(&history, &RecoverableLockModel).unwrap_or_else(|e| {
            panic!("seed {seed}: recoverable-lock history must linearize\n{e}")
        });
    }
    assert!(
        with_recovery >= 3,
        "the sweep must include histories with real recoveries (got {with_recovery})"
    );
}
