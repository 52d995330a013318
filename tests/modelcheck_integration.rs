//! End-to-end tests of the verification stack: the paper's theorems
//! checked exhaustively through `tfr_core::verify`, the reduced
//! explorers cross-validated against the naive one on a random corpus,
//! budget semantics that never mistake truncation for proof, and the
//! model-checker ↔ linearizability-checker cross-examination.

use std::time::Duration;
use tfr::asynclock::workload::LockLoop;
use tfr::core::verify::{
    consensus_safety_spec, consensus_workload, fischer_counterexample, fischer_workload,
    resilient_workload, verify_consensus, verify_resilient_mutex,
};
use tfr::linearize::mutants::SplitTasSpec;
use tfr::linearize::{check_history, lock_history_from_schedule, LockModel};
use tfr::modelcheck::{
    corpus, replay_schedule, sample_execution, DporExplorer, Explorer, SafetySpec,
};

// ---------------------------------------------------------------------
// The theorems, verified exhaustively
// ---------------------------------------------------------------------

/// Theorems 2.2 + 2.3 for n = 3: agreement and validity of Algorithm 1
/// hold on *every* interleaving — and all interleavings is exactly what
/// arbitrary timing failures can produce.
#[test]
fn theorem_2_2_and_2_3_consensus_n3_exhaustive() {
    let report = verify_consensus(&[false, true, true], 2);
    assert!(
        report.proven_safe(),
        "{:?}",
        report.violation.map(|v| v.violation)
    );
    assert!(
        report.states_explored > 1000,
        "a real state space was walked"
    );
}

/// Algorithm 3's mutual exclusion for n = 2, fully exhausted: the
/// explored space fits well under the depth bound, so the verdict is a
/// proof, not a bounded search.
#[test]
fn algorithm_3_mutual_exclusion_n2_exhaustive() {
    let report = verify_resilient_mutex(2, 100_000);
    assert!(
        report.proven_safe(),
        "{:?}",
        report.violation.map(|v| v.violation)
    );
    assert!(!report.truncated());
}

/// The §3.1 negative result: Fischer's lock breaks, and the
/// counterexample replays at the model level.
#[test]
fn fischer_counterexample_exists_and_replays() {
    let cex = fischer_counterexample(2).expect("Fischer must break under timing failures");
    let replayed = replay_schedule(&fischer_workload(2), 2, &SafetySpec::mutex(), &cex.schedule);
    assert_eq!(replayed.as_ref(), Some(&cex.violation));
}

// ---------------------------------------------------------------------
// Differential soundness: reduced explorers vs ground truth
// ---------------------------------------------------------------------

/// DPOR, alone and with symmetry, must return the same verdict as the
/// unreduced explorer on every corpus program. A reduction that prunes a
/// violating interleaving is unsound; one that invents a violation is
/// broken — violations must also replay.
#[test]
fn reduced_explorers_agree_with_naive_on_random_corpus() {
    for seed in 0..120 {
        let case = corpus::generate(seed);
        let truth = Explorer::new(case.automaton.clone(), case.n).check(&case.spec);
        let dpor = DporExplorer::new(case.automaton.clone(), case.n);
        for (name, reduced) in [
            ("dpor", dpor.check(&case.spec)),
            ("dpor+sym", dpor.check_symmetric(&case.spec)),
        ] {
            assert_eq!(
                truth.violation.is_some(),
                reduced.violation.is_some(),
                "seed {seed}: {name} verdict diverged from ground truth"
            );
            if let Some(cex) = &reduced.violation {
                let replayed = replay_schedule(&case.automaton, case.n, &case.spec, &cex.schedule);
                assert_eq!(
                    replayed.as_ref(),
                    Some(&cex.violation),
                    "seed {seed}: {name} counterexample must replay"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Budget semantics: truncation is never proof
// ---------------------------------------------------------------------

/// A depth-cut exploration reports `depth_truncated` and refuses
/// `proven_safe`, whatever it saw.
#[test]
fn depth_truncation_never_proves_safety() {
    let report = DporExplorer::new(consensus_workload(&[false, true], 3), 2)
        .max_depth(4)
        .check(&consensus_safety_spec(&[false, true]));
    assert!(report.violation.is_none());
    assert!(report.depth_truncated);
    assert!(report.truncated());
    assert!(!report.exhausted());
    assert!(!report.proven_safe(), "a bounded search is not a proof");
}

/// Same for the state budget, on the naive and DPOR explorers.
#[test]
fn state_budget_truncation_never_proves_safety() {
    let spec = consensus_safety_spec(&[false, true]);
    let naive = Explorer::new(consensus_workload(&[false, true], 3), 2)
        .max_states(50)
        .check(&spec);
    assert!(naive.states_truncated && !naive.proven_safe());
    let dpor = DporExplorer::new(consensus_workload(&[false, true], 3), 2)
        .max_states(50)
        .check(&spec);
    assert!(dpor.states_truncated && !dpor.proven_safe());
}

// ---------------------------------------------------------------------
// Cross-checker: explorer tier ↔ Wing–Gong tier
// ---------------------------------------------------------------------

/// Histories of explorer-visited executions of a *safe* lock pass the
/// linearizability checker against the sequential lock model.
#[test]
fn safe_lock_executions_linearize() {
    let workload = resilient_workload(2);
    for seed in [0, 1, 7] {
        let schedule = sample_execution(&workload, 2, seed, 400);
        let history = lock_history_from_schedule(&workload, 2, &schedule);
        assert!(!history.is_empty());
        assert!(
            check_history(&history, &LockModel).is_ok(),
            "seed {seed}: safe-lock history must linearize"
        );
    }
}

/// The seeded split test-and-set mutant is rejected by BOTH tiers: the
/// explorer finds the mutual exclusion violation, and the violating
/// execution's history fails Wing–Gong against the lock model.
#[test]
fn split_tas_mutant_rejected_by_both_tiers() {
    let workload = LockLoop::new(SplitTasSpec::new(2), 1);

    // Tier 1: exhaustive exploration finds the lost exclusion.
    let report = DporExplorer::new(workload.clone(), 2).check(&SafetySpec::mutex());
    let cex = report
        .violation
        .expect("the split TAS must lose mutual exclusion");

    // Tier 2: the same execution, read as a concurrent history, has two
    // completed acquires with no release — non-linearizable.
    let history = lock_history_from_schedule(&workload, 2, &cex.schedule);
    assert!(
        check_history(&history, &LockModel).is_err(),
        "the Wing–Gong tier must reject the violating execution too"
    );
}

// ---------------------------------------------------------------------
// Cross-stack: abstract counterexample → native violation
// ---------------------------------------------------------------------

/// The model-level Fischer counterexample compiles to a native fault
/// schedule that reproduces the violation on real threads (the full
/// pipeline also runs in `tests/chaos_integration.rs`).
#[test]
fn fischer_counterexample_compiles_to_native_faults() {
    use tfr::chaos::fischer_faults_from_counterexample;
    use tfr::core::mutex::fischer::FischerSpec;
    use tfr::registers::{RegId, Ticks};

    let cex = fischer_counterexample(2).expect("Fischer must break");
    let x: RegId = FischerSpec::new(2, 0, Ticks(100)).x();
    let compiled = fischer_faults_from_counterexample(&cex, 2, x, Duration::from_micros(500));
    assert_eq!(compiled.config.n, 2);
    assert_eq!(compiled.config.iterations, 1);
    assert!(
        !compiled.faults.is_empty(),
        "a racing schedule needs at least one ordering stall"
    );
    assert!(
        compiled.config.cs_hold > Duration::from_millis(50),
        "the winner must dwell long enough for the intruder to arrive"
    );
}
