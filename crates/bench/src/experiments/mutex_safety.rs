//! E6: one timing failure breaks Fischer's mutual exclusion (§3.1), while
//! Algorithm 3 stays safe on the same schedule — and under *all*
//! schedules (model checked).

use super::delta;
use crate::table::{by_id, gate, GateResult};
use crate::Table;
use tfr_asynclock::workload::LockLoop;
use tfr_core::mutex::fischer::FischerSpec;
use tfr_core::mutex::resilient::standard_resilient_spec;
use tfr_modelcheck::{Explorer, SafetySpec};
use tfr_registers::{ProcId, Ticks};
use tfr_sim::metrics::mutex_stats;
use tfr_sim::timing::{Fate, Scripted};
use tfr_sim::{RunConfig, Sim};

const FISCHER: &str = "fischer (Alg 2)";
const ALG3: &str = "resilient (Alg 3)";
const EXPLORER: &str = "exhaustive model check";

/// The paper's violation schedule: p0's write to `x` outlasts Δ while p1
/// runs cleanly (see `fischer.rs` tests for the step-by-step timeline).
fn violation_model() -> Scripted {
    Scripted::new(Ticks(10))
        .set(ProcId(0), 2, Fate::Take(Ticks(500)))
        .set(ProcId(1), 1, Fate::Take(Ticks(30)))
}

/// E6 — see module docs.
pub fn e6() -> Vec<Table> {
    let d = delta();
    let mut t = Table::new(
        "E6",
        "mutual exclusion under timing failures: Fischer vs Algorithm 3",
        &[
            "algorithm",
            "method",
            "timing failures",
            "ME violated",
            "detail",
        ],
    );

    // Fischer on the scripted one-failure schedule.
    {
        let automaton = LockLoop::new(FischerSpec::new(2, 0, d.ticks()), 1)
            .cs_ticks(Ticks(1000))
            .ncs_ticks(Ticks(1));
        let result = Sim::new(automaton, RunConfig::new(2, d), violation_model()).run();
        let stats = mutex_stats(&result, Ticks::ZERO);
        t.row(vec![
            FISCHER.into(),
            "scripted sim (1 slow write)".into(),
            result.timing_failures.to_string(),
            stats.mutual_exclusion_violated.to_string(),
            "the paper's §3.1 schedule".into(),
        ]);
    }

    // Algorithm 3 on the same schedule.
    {
        let automaton = LockLoop::new(standard_resilient_spec(2, 0, d.ticks()), 1)
            .cs_ticks(Ticks(1000))
            .ncs_ticks(Ticks(1));
        let result = Sim::new(automaton, RunConfig::new(2, d), violation_model()).run();
        let stats = mutex_stats(&result, Ticks::ZERO);
        t.row(vec![
            ALG3.into(),
            "same scripted schedule".into(),
            result.timing_failures.to_string(),
            stats.mutual_exclusion_violated.to_string(),
            format!("{} CS entries, all exclusive", stats.cs_entries),
        ]);
    }

    // Exhaustive: Fischer must have a reachable violation; Algorithm 3
    // must be safe over the whole space.
    {
        let report = Explorer::new(LockLoop::new(FischerSpec::new(2, 0, d.ticks()), 1), 2)
            .check(&SafetySpec::mutex());
        let detail = match &report.violation {
            Some(cex) => format!("counterexample of {} steps", cex.schedule.len()),
            None => "NO VIOLATION FOUND (unexpected)".into(),
        };
        t.row(vec![
            FISCHER.into(),
            EXPLORER.into(),
            "adversarial".into(),
            report.violation.is_some().to_string(),
            detail,
        ]);
    }
    {
        let report = Explorer::new(
            LockLoop::new(standard_resilient_spec(2, 0, d.ticks()), 1),
            2,
        )
        .check(&SafetySpec::mutex());
        let detail = if report.proven_safe() {
            format!("proven safe over {} states", report.states_explored)
        } else {
            format!("violation: {:?}", report.violation)
        };
        t.row(vec![
            ALG3.into(),
            EXPLORER.into(),
            "adversarial".into(),
            report.violation.is_some().to_string(),
            detail,
        ]);
    }

    t.note("claim: Fischer violates ME under one timing failure; Algorithm 3 never does");
    vec![t]
}

/// The gates on E6: §3.1's contrast, in both methods — deterministic
/// functions of the script and of the explored state space.
pub fn gates(tables: &[Table]) -> Vec<GateResult> {
    let row =
        |alg, method| by_id(tables, "E6")?.row_where(&[("algorithm", alg), ("method", method)]);
    vec![
        gate("E6.fischer_violated_in_sim_and_explorer", || {
            for method in ["scripted sim (1 slow write)", EXPLORER] {
                let row = row(FISCHER, method)?;
                row.expect(row.text("ME violated")? == "true", "ME violated = true")?;
            }
            Ok(())
        }),
        gate("E6.alg3_never_violated", || {
            for method in ["same scripted schedule", EXPLORER] {
                let row = row(ALG3, method)?;
                row.expect(row.text("ME violated")? == "false", "ME violated = false")?;
            }
            Ok(())
        }),
        gate("E6.alg3_proven_safe", || {
            let row = row(ALG3, EXPLORER)?;
            let proven = row.text("detail")?.starts_with("proven safe");
            row.expect(proven, "detail = proven safe over … states")
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::gates;
    use crate::experiments::testkit::{assert_gates_reject, table, Doctor::*};

    #[test]
    fn every_mutex_safety_gate_rejects_its_mutant() {
        let fixture = [table(
            "E6",
            "algorithm | method | timing failures | ME violated | detail",
            &[
                "fischer (Alg 2) | scripted sim (1 slow write) | 1 | true | the paper's §3.1 schedule",
                "resilient (Alg 3) | same scripted schedule | 1 | false | 2 CS entries, all exclusive",
                "fischer (Alg 2) | exhaustive model check | adversarial | true | counterexample of 10 steps",
                "resilient (Alg 3) | exhaustive model check | adversarial | false | proven safe over 1753 states",
            ],
        )];
        assert_gates_reject(
            gates,
            &fixture,
            &[
                (
                    "E6.fischer_violated_in_sim_and_explorer",
                    &[
                        Set(0, "ME violated", "false"),
                        Set(2, "ME violated", "false"),
                        DropRow(2),
                    ],
                ),
                (
                    "E6.alg3_never_violated",
                    &[
                        Set(1, "ME violated", "true"),
                        Set(3, "ME violated", "true"),
                        DropRow(1),
                        DropRow(3),
                    ],
                ),
                (
                    "E6.alg3_proven_safe",
                    &[Set(3, "detail", "violation: None"), DropRow(3)],
                ),
            ],
        );
    }
}
