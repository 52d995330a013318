//! Model-checker counterexamples as native fault schedules.
//!
//! The `tfr-modelcheck` explorers find abstract violations: a
//! [`Counterexample`] is an interleaving of register actions that drives
//! the *spec form* of an algorithm into a bad state. This module closes
//! the loop with the native stack: [`fischer_faults_from_counterexample`]
//! compiles a Fischer mutual-exclusion counterexample into a concrete
//! [`Fault`] schedule whose [`run_mutex_chaos`](crate::run_mutex_chaos)
//! replay makes **real threads** on **real atomics** commit the same
//! violation, deterministically.
//!
//! # How the compilation works
//!
//! The explorer's schedule fixes a total order of shared-memory steps.
//! Natively we cannot schedule instructions, but we *can* stall threads
//! at the injection points of [`tfr_registers::chaos`] — and a stall is
//! exactly a timing failure, the fault class the counterexample exploits
//! in the first place. The converter synthesises a timeline:
//!
//! 1. Walk the abstract schedule once, assigning each step a wall-clock
//!    start time: a context-switch margin (tens of milliseconds, far
//!    above thread-spawn and scheduler jitter) is charged whenever the
//!    acting process changes, and Fischer's in-protocol `delay(Δ)` steps
//!    are charged the native Δ.
//! 2. For each process, the gap between two of its consecutive steps
//!    that is filled with other processes' activity becomes a stall at
//!    the native pre-point of the later step: the thread arrives early,
//!    sleeps through exactly the window the model schedule kept it
//!    inert, and resumes on cue.
//!
//! The pre-points used are [`points::WORKLOAD_NCS`] (start-of-iteration,
//! realising the schedule's process start order),
//! [`points::FISCHER_WRITE_X`] (the read→write window — the §3.1 hazard)
//! and [`points::FISCHER_CHECK_X`] (between `delay(Δ)` and the ownership
//! check). Fischer's await-read (`while x ≠ 0`) needs no point: the spin
//! exits the moment it sees zero, and the write it guards is held back
//! by the window stall, so an early native read observes the same value
//! the model read did.
//!
//! The margins make the replay robust rather than racy: every ordering
//! constraint is enforced by a stall an order of magnitude longer than
//! OS noise, so the violation reproduces on every run, not with some
//! probability.
//!
//! # Scope
//!
//! The compiler targets single-iteration entry violations — schedules in
//! which each process acquires at most once and the violation is the
//! second simultaneous entry. That is exactly the shape
//! `tfr_core::verify::fischer_counterexample` produces (its workload is
//! one acquisition per process, and a mutual-exclusion monitor flags at
//! the moment of the intruding entry, before any exit can appear).

use std::time::Duration;

use crate::nemesis::MutexChaosConfig;
use tfr_modelcheck::Counterexample;
use tfr_registers::chaos::{points, Fault, FaultAction};
use tfr_registers::spec::Action;
use tfr_registers::{ProcId, RegId};

/// Margin charged whenever the schedule switches to a different process:
/// the replay's unit of "happens after". Dominates thread-spawn latency
/// and scheduler jitter by orders of magnitude.
const SWITCH_MARGIN: Duration = Duration::from_millis(25);

/// Stalls shorter than this are noise against `SWITCH_MARGIN` and are
/// dropped (the margin of the *next* switch already absorbs them).
const MIN_STALL: Duration = Duration::from_millis(1);

/// A compiled counterexample: everything `run_mutex_chaos` needs to
/// replay the model-level violation on the native lock.
#[derive(Debug, Clone)]
pub struct CompiledViolation {
    /// The stalls realising the abstract schedule.
    pub faults: Vec<Fault>,
    /// Workload shape: one iteration per process, zero remainder dwell,
    /// and a critical-section dwell long enough that the first entrant
    /// is still inside when the schedule walks the intruder in.
    pub config: MutexChaosConfig,
    /// The native Δ the timeline was computed against; build the lock
    /// with this (`Fischer::new(n, compiled.delta)`).
    pub delta: Duration,
}

/// Compiles a Fischer mutual-exclusion [`Counterexample`] (from the
/// spec-form lock on register `x`) into a native fault schedule.
///
/// `delta` is the native lock's Δ — the timeline charges it for each
/// in-protocol `delay` step. Keep it well under the private `SWITCH_MARGIN` so the
/// protocol's own waiting never outruns the ordering stalls (the
/// sub-millisecond Δs used across this workspace all qualify).
///
/// # Panics
///
/// Panics if the schedule mentions a process id `>= n` or contains an
/// exit write (`x := 0`) — see the module docs on scope.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use tfr_chaos::fromcex::fischer_faults_from_counterexample;
/// use tfr_chaos::run_mutex_chaos;
/// use tfr_core::mutex::fischer::{Fischer, FischerSpec};
///
/// let cex = tfr_core::verify::fischer_counterexample(2).unwrap();
/// let x = FischerSpec::new(2, 0, tfr_registers::Ticks(100)).x();
/// let compiled =
///     fischer_faults_from_counterexample(&cex, 2, x, Duration::from_micros(500));
/// let lock = Fischer::new(2, compiled.delta);
/// let report = run_mutex_chaos(&lock, &compiled.config, &compiled.faults, None);
/// assert!(report.mutual_exclusion_violated());
/// ```
pub fn fischer_faults_from_counterexample(
    cex: &Counterexample,
    n: usize,
    x: RegId,
    delta: Duration,
) -> CompiledViolation {
    // Pass 1: the synthetic timeline. `start[i]` is when step `i` should
    // begin natively; `end_of[p]` is when `p`'s latest step finished.
    let mut start: Vec<Duration> = Vec::with_capacity(cex.schedule.len());
    let mut clock = Duration::ZERO;
    let mut prev_pid: Option<ProcId> = None;
    // Per process: (time its previous step ended, its previous action).
    let mut last: Vec<Option<(Duration, Action)>> = vec![None; n];

    for &(pid, action) in &cex.schedule {
        assert!(pid.0 < n, "counterexample mentions {pid} but n = {n}");
        assert!(
            action != Action::Write(x, 0),
            "exit writes are outside the compiler's scope (see module docs)"
        );
        if prev_pid.is_some_and(|q| q != pid) {
            clock += SWITCH_MARGIN;
        }
        start.push(clock);
        // Only Fischer's own delay(Δ) — the delay following the token
        // write — costs real time natively; remainder/critical dwells
        // are config-controlled and held at zero / charged separately.
        if matches!(action, Action::Delay(_)) && is_entry_write(last[pid.0].map(|(_, a)| a), x) {
            clock += delta;
        }
        last[pid.0] = Some((clock, action));
        prev_pid = Some(pid);
    }

    // Pass 2: per-process gaps become stalls at the pre-point of the
    // gapped step. `nth` counts native visits of each point, which for a
    // pre-exit schedule is exactly the number of model steps of that
    // shape seen so far.
    let mut faults = Vec::new();
    let mut prev_own: Vec<Option<(Duration, Action)>> = vec![None; n];
    let mut write_visits = vec![0u64; n];
    let mut check_visits = vec![0u64; n];

    for (i, &(pid, action)) in cex.schedule.iter().enumerate() {
        let p = pid.0;
        let (point, nth) = match (prev_own[p], action) {
            // First step: the iteration begins at `workload.ncs`.
            (None, _) => (points::WORKLOAD_NCS, 1),
            // Token write: the read→write window.
            (_, Action::Write(r, v)) if r == x && v != 0 => {
                write_visits[p] += 1;
                (points::FISCHER_WRITE_X, write_visits[p])
            }
            // Read of x right after the post-write delay: the check.
            (Some((_, Action::Delay(_))), Action::Read(r))
                if r == x && was_post_write_delay(&cex.schedule, i, pid, x) =>
            {
                check_visits[p] += 1;
                (points::FISCHER_CHECK_X, check_visits[p])
            }
            // Await-reads and dwell delays have no native pre-point and
            // need none (see module docs).
            _ => {
                prev_own[p] = Some((end_time(start[i], action, prev_own[p], x, delta), action));
                continue;
            }
        };
        let ready_at = prev_own[p].map_or(Duration::ZERO, |(t, _)| t);
        let stall = start[i].saturating_sub(ready_at);
        if stall >= MIN_STALL {
            faults.push(Fault {
                pid,
                point,
                nth,
                action: FaultAction::Stall(stall),
            });
        }
        prev_own[p] = Some((end_time(start[i], action, prev_own[p], x, delta), action));
    }

    // The first entrant must still be inside the critical section when
    // the schedule's last step walks the intruder in.
    let config = MutexChaosConfig {
        n,
        iterations: 1,
        cs_hold: clock + 2 * SWITCH_MARGIN,
        ncs_hold: Duration::ZERO,
    };
    CompiledViolation {
        faults,
        config,
        delta,
    }
}

/// Whether `prev` (a process's preceding action) was its token write to
/// `x` — making the current delay the in-protocol `delay(Δ)`.
fn is_entry_write(prev: Option<Action>, x: RegId) -> bool {
    matches!(prev, Some(Action::Write(r, v)) if r == x && v != 0)
}

/// Whether the delay immediately before step `i` in `pid`'s own
/// subsequence follows `pid`'s token write — i.e. step `i` is the
/// ownership check, not some later read.
fn was_post_write_delay(schedule: &[(ProcId, Action)], i: usize, pid: ProcId, x: RegId) -> bool {
    let mut own = schedule[..i]
        .iter()
        .rev()
        .filter(|(q, _)| *q == pid)
        .map(|&(_, a)| a);
    matches!(own.next(), Some(Action::Delay(_))) && is_entry_write(own.next(), x)
}

/// When a step beginning at `begin` finishes natively: Δ for the
/// in-protocol delay, instantaneous otherwise.
fn end_time(
    begin: Duration,
    action: Action,
    prev_own: Option<(Duration, Action)>,
    x: RegId,
    delta: Duration,
) -> Duration {
    if matches!(action, Action::Delay(_)) && is_entry_write(prev_own.map(|(_, a)| a), x) {
        begin + delta
    } else {
        begin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_modelcheck::Violation;
    use tfr_registers::Ticks;

    const X: RegId = RegId(0);
    const D: Duration = Duration::from_micros(500);

    /// The canonical §3.1 interleaving: both processes observe `x = 0`,
    /// then each completes write → delay → check in turn.
    fn canonical_cex() -> Counterexample {
        let p0 = ProcId(0);
        let p1 = ProcId(1);
        Counterexample {
            violation: Violation::MutualExclusion { pids: (p0, p1) },
            schedule: vec![
                (p0, Action::Delay(Ticks(1))), // remainder
                (p0, Action::Read(X)),         // await: sees 0
                (p1, Action::Delay(Ticks(1))),
                (p1, Action::Read(X)), // await: sees 0 — in the window
                (p0, Action::Write(X, 1)),
                (p0, Action::Delay(Ticks(100))),
                (p0, Action::Read(X)), // check: owns x → enters
                (p1, Action::Write(X, 2)),
                (p1, Action::Delay(Ticks(100))),
                (p1, Action::Read(X)), // check: owns x → violation
            ],
        }
    }

    #[test]
    fn canonical_cex_compiles_to_ordering_and_window_stalls() {
        let c = fischer_faults_from_counterexample(&canonical_cex(), 2, X, D);
        // p1 starts one switch late; both sit in the window while the
        // other acts; p0's check follows its delay gap-free.
        let stalls: Vec<(ProcId, &str, u64)> =
            c.faults.iter().map(|f| (f.pid, f.point, f.nth)).collect();
        assert_eq!(
            stalls,
            vec![
                (ProcId(1), points::WORKLOAD_NCS, 1),
                (ProcId(0), points::FISCHER_WRITE_X, 1),
                (ProcId(1), points::FISCHER_WRITE_X, 1),
            ]
        );
    }

    #[test]
    fn window_stalls_cover_the_other_processes_activity() {
        let c = fischer_faults_from_counterexample(&canonical_cex(), 2, X, D);
        let stall = |pid: ProcId, point: &str| {
            c.faults
                .iter()
                .find(|f| f.pid == pid && f.point == point)
                .map(|f| match f.action {
                    FaultAction::Stall(d) => d,
                    _ => unreachable!(),
                })
                .unwrap()
        };
        // p0 waits in the window for p1's start margin + await steps.
        assert_eq!(stall(ProcId(0), points::FISCHER_WRITE_X), 2 * SWITCH_MARGIN);
        // p1 additionally waits out p0's write + delay(Δ) + check.
        assert_eq!(
            stall(ProcId(1), points::FISCHER_WRITE_X),
            2 * SWITCH_MARGIN + D
        );
        // And the winner dwells in the CS past the end of the schedule.
        assert!(c.config.cs_hold > 4 * SWITCH_MARGIN + 2 * D);
        assert_eq!(c.config.iterations, 1);
        assert_eq!(c.config.ncs_hold, Duration::ZERO);
    }

    #[test]
    fn gapless_checks_emit_no_check_stall() {
        let c = fischer_faults_from_counterexample(&canonical_cex(), 2, X, D);
        assert!(c.faults.iter().all(|f| f.point != points::FISCHER_CHECK_X));
    }

    #[test]
    fn gapped_check_emits_a_check_stall() {
        // A variant where p1's write lands between p0's delay and check
        // (still a violation: p0's check reads... its own token? no —
        // this shape instead requires p1's write *after* p0's check; put
        // the intrusion on p1's side and gap p1's check with p0's CS
        // dwell).
        let p0 = ProcId(0);
        let p1 = ProcId(1);
        let cex = Counterexample {
            violation: Violation::MutualExclusion { pids: (p0, p1) },
            schedule: vec![
                (p0, Action::Delay(Ticks(1))),
                (p0, Action::Read(X)),
                (p1, Action::Delay(Ticks(1))),
                (p1, Action::Read(X)),
                (p0, Action::Write(X, 1)),
                (p0, Action::Delay(Ticks(100))),
                (p0, Action::Read(X)), // enters
                (p1, Action::Write(X, 2)),
                (p1, Action::Delay(Ticks(100))),
                (p0, Action::Delay(Ticks(1))), // p0 dwells in the CS
                (p1, Action::Read(X)),         // gapped check → violation
            ],
        };
        let c = fischer_faults_from_counterexample(&cex, 2, X, D);
        let check: Vec<_> = c
            .faults
            .iter()
            .filter(|f| f.point == points::FISCHER_CHECK_X)
            .collect();
        assert_eq!(check.len(), 1);
        assert_eq!(check[0].pid, p1);
        assert_eq!(check[0].nth, 1);
    }

    #[test]
    #[should_panic(expected = "exit writes")]
    fn exit_writes_are_rejected() {
        let cex = Counterexample {
            violation: Violation::MutualExclusion {
                pids: (ProcId(0), ProcId(1)),
            },
            schedule: vec![(ProcId(0), Action::Write(X, 0))],
        };
        let _ = fischer_faults_from_counterexample(&cex, 2, X, D);
    }

    #[test]
    fn compiled_schedule_reproduces_the_violation_natively() {
        use crate::run_mutex_chaos;
        use tfr_core::mutex::fischer::Fischer;

        let cex = tfr_core::verify::fischer_counterexample(2).expect("Fischer must break");
        let c = fischer_faults_from_counterexample(&cex, 2, X, D);
        let lock = Fischer::new(2, c.delta);
        let report = run_mutex_chaos(&lock, &c.config, &c.faults, None);
        assert!(
            report.mutual_exclusion_violated(),
            "native replay must reproduce the model violation: {report:?}"
        );
    }
}
