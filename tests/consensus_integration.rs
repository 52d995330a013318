//! Cross-crate integration tests for Algorithm 1: the specification form
//! (simulator + model checker) and the native form must realize the same
//! object, and every Theorem 2.x property must hold through the public
//! API.

use std::sync::Arc;
use std::time::Duration;
use tfr::core::consensus::{ConsensusSpec, NativeConsensus};
use tfr::modelcheck::{Explorer, SafetySpec, Violation};
use tfr::registers::bank::ArrayBank;
use tfr::registers::spec::run_solo;
use tfr::registers::{Delta, ProcId, RegId, Ticks};
use tfr::sim::metrics::consensus_stats;
use tfr::sim::timing::{standard_no_failures, CrashSchedule, Fate, Scripted, UniformAccess};
use tfr::sim::{RunConfig, Sim};

#[test]
fn spec_and_native_agree_on_solo_behaviour() {
    for input in [false, true] {
        // Spec form.
        let mut bank = ArrayBank::new();
        let run = run_solo(&ConsensusSpec::new(vec![input]), ProcId(0), &mut bank, 50);
        // Native form.
        let native = NativeConsensus::new(Duration::from_micros(1));
        let native_decision = native.propose(input);
        assert_eq!(run.decision(), Some(input as u64));
        assert_eq!(native_decision, input);
        assert_eq!(
            run.shared_accesses, 6,
            "the fast path is 6 steps in both forms"
        );
    }
}

#[test]
fn unanimous_inputs_decide_that_value_in_all_three_harnesses() {
    for input in [false, true] {
        // Simulator.
        let d = Delta::from_ticks(100);
        let result = Sim::new(
            ConsensusSpec::new(vec![input; 4]),
            RunConfig::new(4, d),
            standard_no_failures(d, 3),
        )
        .run();
        assert_eq!(consensus_stats(&result).decided_value, Some(input as u64));

        // Model checker: with unanimous inputs, only that value is valid —
        // exhaustively.
        let report = Explorer::new(ConsensusSpec::new(vec![input; 2]).max_rounds(3), 2)
            .check(&SafetySpec::consensus(vec![input as u64]));
        assert!(report.proven_safe(), "{:?}", report.violation);

        // Native threads.
        let native = Arc::new(NativeConsensus::new(Duration::from_micros(2)));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&native);
                std::thread::spawn(move || c.propose(input))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), input);
        }
    }
}

#[test]
fn agreement_under_heavy_failures_and_crashes_combined() {
    let d = Delta::from_ticks(100);
    for seed in 0..30 {
        let n = 5;
        let inputs: Vec<bool> = (0..n)
            .map(|i| (i as u64 + seed).is_multiple_of(2))
            .collect();
        let valid: Vec<u64> = inputs.iter().map(|&b| b as u64).collect();
        let base = UniformAccess::new(Ticks(10), Ticks(800), seed);
        let model =
            CrashSchedule::new(base, vec![(ProcId(2), Ticks(300)), (ProcId(4), Ticks(900))]);
        let config = RunConfig::new(n, d).max_steps(100_000);
        let result = Sim::new(ConsensusSpec::new(inputs).max_rounds(40), config, model).run();
        let stats = consensus_stats(&result);
        assert!(stats.agreement, "seed={seed}");
        assert!(stats.valid_against(&valid), "seed={seed}");
    }
}

#[test]
fn decision_is_sticky_across_late_arrivals() {
    // A process that starts after the decision adopts it in one step.
    let d = Delta::from_ticks(100);
    let model = Scripted::new(Ticks(10)).set(ProcId(2), 0, Fate::Take(Ticks(5_000)));
    let result = Sim::new(
        ConsensusSpec::new(vec![true, true, false]),
        RunConfig::new(3, d),
        model,
    )
    .run();
    let stats = consensus_stats(&result);
    assert!(stats.agreement);
    assert_eq!(stats.decided_value, Some(1), "early unanimous true wins");
    let (t2, v2) = result.decision_of(ProcId(2)).expect("late process decides");
    assert_eq!(v2, 1);
    assert!(t2 >= Ticks(5_000), "p2 was stalled until t=5000");
}

#[test]
fn forced_conflict_rounds_then_recovery_bound() {
    // The E3b adversary as a regression test: R rounds of forced split,
    // then clean — decide by round R + 2 (= r + 1 where r is the first
    // clean round).
    let d = Delta::from_ticks(100);
    for forced in 1u64..=4 {
        let mut model = Scripted::new(Ticks(10));
        for k in 0..forced {
            if k > 0 {
                model = model.set(ProcId(0), 7 * k, Fate::Take(Ticks(260)));
            }
            model = model.set(ProcId(0), 7 * k + 6, Fate::Take(Ticks(150))).set(
                ProcId(1),
                7 * k + 3,
                Fate::Take(Ticks(400)),
            );
        }
        let spec = ConsensusSpec::new(vec![false, true]).with_delta(d.ticks());
        let result = Sim::new(spec, RunConfig::new(2, d), model).run();
        let stats = consensus_stats(&result);
        assert!(stats.agreement, "R={forced}");
        assert!(
            stats.all_decided_by.is_some(),
            "R={forced}: must decide after failures stop"
        );
        assert!(
            stats.max_round > forced,
            "R={forced}: the adversary must actually force {forced} conflict rounds \
             (reached only {})",
            stats.max_round
        );
        assert!(
            stats.max_round <= forced + 2,
            "R={forced}: Theorem 2.1(2) bound violated"
        );
    }
}

#[test]
fn modelcheck_three_processes_exhaustive() {
    let report = Explorer::new(ConsensusSpec::new(vec![true, false, true]).max_rounds(2), 3)
        .check(&SafetySpec::consensus(vec![0, 1]));
    assert!(report.proven_safe(), "{:?}", report.violation);
    assert!(
        report.states_explored > 10_000,
        "the space must be nontrivial"
    );
}

#[test]
fn native_decision_visible_to_non_proposers() {
    let c = Arc::new(NativeConsensus::new(Duration::from_micros(2)));
    assert_eq!(c.decision(), None);
    let c2 = Arc::clone(&c);
    let h = std::thread::spawn(move || c2.propose(false));
    let decided = h.join().unwrap();
    assert!(!decided);
    assert_eq!(
        c.decision(),
        Some(false),
        "observers read the decision wait-free"
    );
}

/// The obligation behind the native form's agreed write of `decide`, on
/// E5a's configurations: no reachable state has two different values
/// written or pending at `decide`, over every interleaving (the explorer
/// checks every register whose writes the spec labels agreed).
#[test]
fn decide_takes_one_value_in_every_reachable_state() {
    for (inputs, rounds) in [
        (vec![false, true], 3),
        (vec![false, true], 4),
        (vec![true, true], 4),
        (vec![false, true, true], 2),
    ] {
        let valid: Vec<u64> = inputs.iter().map(|&b| b as u64).collect();
        let n = inputs.len();
        let spec = ConsensusSpec::new(inputs).max_rounds(rounds);
        let report = Explorer::new(spec, n).check(&SafetySpec::consensus(valid));
        assert!(report.proven_safe(), "{:?}", report.violation);
    }
}

/// A spec mutant that writes its round-1 input to `decide`, instead of
/// its current preference, fails the invariant above.
#[test]
fn a_spec_writing_its_input_to_decide_fails_the_agreed_write_invariant() {
    let spec = ConsensusSpec::new(vec![false, true])
        .max_rounds(3)
        .with_decide_writing_input();
    let cex = Explorer::new(spec, 2)
        .check(&SafetySpec::consensus(vec![0, 1]))
        .violation
        .expect("the mutant writes both inputs to decide");
    let Violation::DisagreeingWrites {
        reg,
        values: (a, b),
    } = cex.violation
    else {
        panic!("expected disagreeing writes: {cex}");
    };
    assert_eq!(reg, RegId(0), "decide");
    assert_eq!([a.min(b), a.max(b)], [1, 2], "false and true: {cex}");
}
