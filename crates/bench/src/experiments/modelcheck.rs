//! E20: the model-checking subsystem measured on the paper's theorems —
//! how much state-space the reductions buy (DPOR, process symmetry, and
//! both).
//!
//! The headline number is the *reduction factor*: states explored by the
//! unreduced explorer divided by states explored by the reduced one, on
//! the same workload with the same verdict. [`gates`] holds it: the
//! reductions must keep buying at least 5× on the theorem-sized
//! configurations, or exhaustive verification stops scaling.

use crate::table::{by_id, gate, GateResult};
use crate::Table;
use std::time::Instant;
use tfr_core::verify::{
    consensus_safety_spec, consensus_workload, fischer_workload, resilient_workload_iters,
};
use tfr_modelcheck::{DporExplorer, Explorer, Report, SafetySpec};

fn verdict(report: &Report) -> String {
    match (&report.violation, report.truncated()) {
        (Some(v), _) => format!("VIOLATION: {}", v.violation),
        (None, true) => "safe within bounds (truncated)".into(),
        (None, false) => "PROVEN SAFE (exhaustive)".into(),
    }
}

/// Runs `f`, returning its report and wall time in milliseconds.
fn timed(f: impl FnOnce() -> Report) -> (Report, f64) {
    let t0 = Instant::now();
    let report = f();
    (report, t0.elapsed().as_secs_f64() * 1e3)
}

/// E20 — see module docs.
pub fn modelcheck() -> Vec<Table> {
    let mut reductions = Table::new(
        "E20a",
        "state-space reduction: naive vs DPOR vs DPOR+symmetry on the theorem workloads",
        &[
            "workload",
            "explorer",
            "states",
            "transitions",
            "wall ms",
            "verdict",
        ],
    );
    let mut summary = Table::new(
        "E20b",
        "reduction factor (naive states / reduced states), same verdicts",
        &["workload", "naive states", "reduced states", "reduction x"],
    );

    // Each row: workload name, the unreduced run, the best reduced run.
    // Consensus and Fischer are pid-symmetric, so their reduced explorer
    // is DPOR+symmetry; Algorithm 3's inner locks scan in fixed pid
    // order (not symmetric), so its reduced explorer is DPOR alone.
    struct Case {
        name: &'static str,
        naive: Box<dyn Fn() -> Report>,
        dpor: Box<dyn Fn() -> Report>,
        reduced: Box<dyn Fn() -> Report>,
        reduced_name: &'static str,
    }
    let cases = vec![
        Case {
            name: "consensus n=2 r=3",
            naive: Box::new(|| {
                Explorer::new(consensus_workload(&[false, true], 3), 2)
                    .check(&consensus_safety_spec(&[false, true]))
            }),
            dpor: Box::new(|| {
                DporExplorer::new(consensus_workload(&[false, true], 3), 2)
                    .check(&consensus_safety_spec(&[false, true]))
            }),
            reduced: Box::new(|| {
                DporExplorer::new(consensus_workload(&[false, true], 3), 2)
                    .check_symmetric(&consensus_safety_spec(&[false, true]))
            }),
            reduced_name: "dpor+sym",
        },
        Case {
            name: "consensus n=3 r=2",
            naive: Box::new(|| {
                Explorer::new(consensus_workload(&[false, true, true], 2), 3)
                    .check(&consensus_safety_spec(&[false, true, true]))
            }),
            dpor: Box::new(|| {
                DporExplorer::new(consensus_workload(&[false, true, true], 2), 3)
                    .check(&consensus_safety_spec(&[false, true, true]))
            }),
            reduced: Box::new(|| {
                DporExplorer::new(consensus_workload(&[false, true, true], 2), 3)
                    .check_symmetric(&consensus_safety_spec(&[false, true, true]))
            }),
            reduced_name: "dpor+sym",
        },
        Case {
            name: "consensus n=3 r=3",
            naive: Box::new(|| {
                Explorer::new(consensus_workload(&[false, true, true], 3), 3)
                    .check(&consensus_safety_spec(&[false, true, true]))
            }),
            dpor: Box::new(|| {
                DporExplorer::new(consensus_workload(&[false, true, true], 3), 3)
                    .check(&consensus_safety_spec(&[false, true, true]))
            }),
            reduced: Box::new(|| {
                DporExplorer::new(consensus_workload(&[false, true, true], 3), 3)
                    .check_symmetric(&consensus_safety_spec(&[false, true, true]))
            }),
            reduced_name: "dpor+sym",
        },
        Case {
            name: "consensus n=4 r=1",
            naive: Box::new(|| {
                Explorer::new(consensus_workload(&[false, true, true, true], 1), 4)
                    .check(&consensus_safety_spec(&[false, true, true, true]))
            }),
            dpor: Box::new(|| {
                DporExplorer::new(consensus_workload(&[false, true, true, true], 1), 4)
                    .check(&consensus_safety_spec(&[false, true, true, true]))
            }),
            reduced: Box::new(|| {
                DporExplorer::new(consensus_workload(&[false, true, true, true], 1), 4)
                    .check_symmetric(&consensus_safety_spec(&[false, true, true, true]))
            }),
            reduced_name: "dpor+sym",
        },
        Case {
            name: "fischer n=2",
            naive: Box::new(|| Explorer::new(fischer_workload(2), 2).check(&SafetySpec::mutex())),
            dpor: Box::new(|| {
                DporExplorer::new(fischer_workload(2), 2).check(&SafetySpec::mutex())
            }),
            reduced: Box::new(|| {
                DporExplorer::new(fischer_workload(2), 2).check_symmetric(&SafetySpec::mutex())
            }),
            reduced_name: "dpor+sym",
        },
        Case {
            name: "resilient n=2",
            naive: Box::new(|| {
                Explorer::new(resilient_workload_iters(2, 1), 2).check(&SafetySpec::mutex())
            }),
            dpor: Box::new(|| {
                DporExplorer::new(resilient_workload_iters(2, 1), 2).check(&SafetySpec::mutex())
            }),
            reduced: Box::new(|| {
                DporExplorer::new(resilient_workload_iters(2, 1), 2).check(&SafetySpec::mutex())
            }),
            reduced_name: "dpor",
        },
        Case {
            name: "resilient n=2 i=2",
            naive: Box::new(|| {
                Explorer::new(resilient_workload_iters(2, 2), 2).check(&SafetySpec::mutex())
            }),
            dpor: Box::new(|| {
                DporExplorer::new(resilient_workload_iters(2, 2), 2).check(&SafetySpec::mutex())
            }),
            reduced: Box::new(|| {
                DporExplorer::new(resilient_workload_iters(2, 2), 2).check(&SafetySpec::mutex())
            }),
            reduced_name: "dpor",
        },
    ];

    for case in &cases {
        let (naive, naive_ms) = timed(&case.naive);
        let (dpor, dpor_ms) = timed(&case.dpor);
        let (reduced, reduced_ms) = timed(&case.reduced);
        for (explorer, report, ms) in [
            ("naive", &naive, naive_ms),
            ("dpor", &dpor, dpor_ms),
            (case.reduced_name, &reduced, reduced_ms),
        ] {
            reductions.row(vec![
                case.name.to_string(),
                explorer.to_string(),
                report.states_explored.to_string(),
                report.transitions.to_string(),
                format!("{ms:.1}"),
                verdict(report),
            ]);
        }
        // Soundness first, speed second: a reduction that changes the
        // verdict would be a bug, not a win.
        assert_eq!(
            naive.violation.is_some(),
            reduced.violation.is_some(),
            "{}: reduction changed the verdict",
            case.name
        );
        summary.row(vec![
            case.name.to_string(),
            naive.states_explored.to_string(),
            reduced.states_explored.to_string(),
            format!(
                "{:.1}",
                naive.states_explored as f64 / reduced.states_explored.max(1) as f64
            ),
        ]);
    }
    reductions
        .note("all interleavings = all timing failures: each PROVEN SAFE row is a theorem check");
    summary.note(
        "gated at reduction x >= 5 for the consensus n=4 r=1 row (the symmetry \
         group is S3 on the three true-proposers, multiplying what DPOR alone buys)",
    );

    vec![reductions, summary]
}

/// The gates on E20: every count below is a deterministic function of
/// the workload, so these hold or fail identically on every machine.
pub fn gates(tables: &[Table]) -> Vec<GateResult> {
    vec![
        // Every theorem row carries its verdict under every explorer:
        // safe workloads proven, Fischer's violation found.
        gate("E20a.theorem_verdicts", || {
            for row in by_id(tables, "E20a")?.rows_where(&[])? {
                let verdict = row.text("verdict")?;
                if row.text("workload")?.starts_with("fischer") {
                    row.expect(verdict.contains("VIOLATION"), "Fischer's VIOLATION found")?;
                } else {
                    row.expect(
                        verdict == "PROVEN SAFE (exhaustive)",
                        "PROVEN SAFE (exhaustive)",
                    )?;
                }
            }
            Ok(())
        }),
        gate("E20b.consensus_n4_reduction", || {
            let headline =
                by_id(tables, "E20b")?.row_where(&[("workload", "consensus n=4 r=1")])?;
            headline.expect(headline.num("reduction x")? >= 5.0, "reduction x >= 5")
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::gates;
    use crate::experiments::testkit::{assert_gates_reject, table, Doctor::*};

    #[test]
    fn every_modelcheck_gate_rejects_its_mutant() {
        let fixture = [
            table(
                "E20a",
                "workload | explorer | verdict",
                &[
                    "consensus n=4 r=1 | naive | PROVEN SAFE (exhaustive)",
                    "consensus n=4 r=1 | dpor+sym | PROVEN SAFE (exhaustive)",
                    "fischer n=2 | dpor+sym | VIOLATION: two processes in the critical section",
                ],
            ),
            table(
                "E20b",
                "workload | reduction x",
                &["consensus n=3 r=2 | 3.1", "consensus n=4 r=1 | 9.4"],
            ),
        ];
        assert_gates_reject(
            gates,
            &fixture,
            &[
                (
                    "E20a.theorem_verdicts",
                    &[
                        Set(2, "verdict", "PROVEN SAFE (exhaustive)"),
                        Set(1, "verdict", "safe within bounds (truncated)"),
                        Clear,
                    ],
                ),
                (
                    "E20b.consensus_n4_reduction",
                    &[Set(1, "reduction x", "4.9"), DropRow(1)],
                ),
            ],
        );
    }
}
