//! Converting a model-checker schedule into a checkable lock history.
//!
//! The explorers of `tfr-modelcheck` verify mutual exclusion with a
//! state monitor; the Wing–Gong checker verifies it as linearizability
//! against [`LockModel`](crate::models::LockModel). This module lets the two tiers cross-examine
//! each other: [`lock_history_from_schedule`] replays any explorer
//! schedule (a visited execution, a sampled one, or a counterexample)
//! over a lock workload and reconstructs the concurrent history of
//! `acquire`/`release` operations from the workload's phase events.
//!
//! The reconstruction is exact, not approximate, because the abstract
//! schedule totally orders the steps:
//!
//! * [`Obs::EnterTrying`] invokes `acquire(p)`; [`Obs::EnterCritical`]
//!   is its response — the moment the lock was granted, which is where
//!   the model linearizes the acquisition.
//! * [`Obs::ExitCritical`] invokes `release(p)`; [`Obs::EnterRemainder`]
//!   is its response.
//! * Timestamps are the global event order of the replay, so real-time
//!   precedence in the history is exactly step precedence in the
//!   schedule.
//!
//! A safe lock's every execution yields a linearizable history; a
//! mutual-exclusion violation yields two completed `acquire`s with no
//! `release` between them, which [`LockModel`](crate::models::LockModel) rejects — the two tiers
//! must agree, and the tests make them.

use crate::history::{History, Operation};
use crate::models::{lock_acquire, lock_release};
use tfr_modelcheck::{run_schedule, SafetySpec};
use tfr_registers::spec::{Action, Automaton, Obs};
use tfr_registers::ProcId;

/// Replays `schedule` over `automaton` (a lock workload emitting the
/// four phase events) and reconstructs the acquire/release history.
///
/// The replay observes with an empty [`SafetySpec`], so it runs the full
/// schedule even when the execution violates mutual exclusion — that is
/// the interesting case. Operations still open when the schedule ends
/// (a process parked in its entry section) are *pending*, which the
/// checker may linearize or drop; a blocked acquirer has no observable
/// effect, so dropping is sound.
///
/// # Panics
///
/// Panics where [`run_schedule`] does: when `schedule` is not a valid
/// execution of `automaton` (wrong pid bounds or actions).
pub fn lock_history_from_schedule<A: Automaton>(
    automaton: &A,
    n: usize,
    schedule: &[(ProcId, Action)],
) -> History {
    let run = run_schedule(automaton, n, &SafetySpec::default(), schedule);
    let mut ops: Vec<Operation> = Vec::new();
    // Index into `ops` of each process's operation awaiting a response.
    let mut open: Vec<Option<usize>> = vec![None; n];
    let mut ts: u64 = 0;
    for (_, pid, obs) in run.events() {
        ts += 1;
        let p = pid.0;
        match obs {
            Obs::EnterTrying | Obs::ExitCritical => {
                assert!(
                    open[p].is_none(),
                    "{pid} invokes an operation with one already open"
                );
                open[p] = Some(ops.len());
                ops.push(Operation {
                    pid,
                    obj: 0,
                    op: if obs == Obs::EnterTrying {
                        lock_acquire(p as u64)
                    } else {
                        lock_release(p as u64)
                    },
                    resp: None,
                    invoke_ts: ts,
                    resp_ts: u64::MAX,
                });
            }
            Obs::EnterCritical | Obs::EnterRemainder => {
                let i = open[p]
                    .take()
                    .unwrap_or_else(|| panic!("{pid} responds with no open operation"));
                ops[i].resp = Some(0);
                ops[i].resp_ts = ts;
            }
            _ => {}
        }
    }
    History::from_ops(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_history;
    use crate::models::LockModel;
    use crate::mutants::SplitTasSpec;
    use tfr_asynclock::workload::LockLoop;
    use tfr_modelcheck::{sample_execution, Explorer};

    #[test]
    fn sampled_resilient_mutex_executions_are_linearizable() {
        // Explorer-reachable executions of Algorithm 3 (a safe lock):
        // every sampled schedule's history must pass the Wing–Gong tier.
        let workload = tfr_core::verify::resilient_workload(2);
        for seed in 0..8 {
            let schedule = sample_execution(&workload, 2, seed, 400);
            let history = lock_history_from_schedule(&workload, 2, &schedule);
            assert!(
                check_history(&history, &LockModel).is_ok(),
                "seed {seed}: a safe lock's history must linearize"
            );
        }
    }

    #[test]
    fn split_tas_mutant_rejected_by_both_tiers() {
        // Tier 1, the explorer: the non-atomic test-and-set loses
        // mutual exclusion on some interleaving.
        let workload = LockLoop::new(SplitTasSpec::new(2), 1);
        let report = Explorer::new(workload.clone(), 2).check(&SafetySpec::mutex());
        let cex = report.violation.expect("the split TAS must break");

        // Tier 2, the checker: the same execution's history has two
        // completed acquires and no release — non-linearizable.
        let history = lock_history_from_schedule(&workload, 2, &cex.schedule);
        let err = check_history(&history, &LockModel).expect_err("two holders");
        let rendered = format!("{err}");
        assert!(
            rendered.contains("acquire"),
            "the failure window names the colliding acquires: {rendered}"
        );
    }

    #[test]
    fn violating_history_has_two_open_holds() {
        let workload = LockLoop::new(SplitTasSpec::new(2), 1);
        let cex = Explorer::new(workload.clone(), 2)
            .check(&SafetySpec::mutex())
            .violation
            .unwrap();
        let history = lock_history_from_schedule(&workload, 2, &cex.schedule);
        let completed_acquires = history
            .ops
            .iter()
            .filter(|o| o.op & 1 == 0 && o.resp.is_some())
            .count();
        let releases = history.ops.iter().filter(|o| o.op & 1 == 1).count();
        assert_eq!(completed_acquires, 2);
        assert_eq!(releases, 0, "the schedule stops at the violation");
    }
}
