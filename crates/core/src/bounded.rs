//! Consensus with **finitely many registers** under a known bound on how
//! long timing failures can last.
//!
//! §2.1 of the paper observes that Algorithm 1 uses infinitely many
//! registers and leaves finite-register time-resilient consensus open in
//! general — but notes that *"such an algorithm exists when there is a
//! known bound on the number of time units during which there are timing
//! failures"*. This module realizes that remark.
//!
//! # Derivation of the register bound
//!
//! Advancing from round `r` to `r + 1` requires executing one `delay(Δ)`,
//! which suspends for **at least** Δ even under timing failures. So a
//! process that is in round `r` has spent at least `(r − 1)·Δ` time, i.e.
//! at any instant `t` every round in progress satisfies `r ≤ t/Δ + 1`.
//!
//! If all timing failures end by time `B`, the highest round in progress
//! when they end is `r* ≤ ⌈B/Δ⌉ + 1`, and by Theorem 2.1(2) every process
//! decides by the end of round `r* + 1 ≤ ⌈B/Δ⌉ + 2`. Rounds beyond
//!
//! ```text
//! R(B) = ⌈B/Δ⌉ + 2
//! ```
//!
//! are therefore never reached, and `3·R(B) + 1` registers (one `decide`,
//! plus `y[r]`, `x[r,0]`, `x[r,1]` per round) suffice.
//!
//! The algorithm is Algorithm 1 with its rounds capped at `R(B)`: in spec
//! form `ConsensusSpec::new(inputs).with_delta(Δ).max_rounds(R)`, whose
//! [`ConsensusSpec::registers`] is `3R + 1`, and natively
//! [`BoundedNativeConsensus`].
//!
//! If the environment breaks the promise (failures outlast `B`), safety
//! still holds unconditionally — the algorithm is a round-capped
//! Algorithm 1 — but a process can run out of rounds, which surfaces as
//! [`BoundExceeded`] in the native form and as a
//! `Note("round-bound-exceeded", r)` event in the spec form.

use crate::consensus::{ConsensusSpec, ConsensusState};
use std::fmt;
use std::time::Duration;
use tfr_asynclock::driver::Driver;
use tfr_registers::space::{DenseSpace, RegisterSpace};
use tfr_registers::{Delta, Ticks};

/// `R(B) = ⌈B/Δ⌉ + 2`: rounds sufficient when timing failures last at
/// most `failure_bound` (see the module docs for the derivation).
pub fn rounds_for_bound(failure_bound: Ticks, delta: Delta) -> u64 {
    failure_bound.0.div_ceil(delta.ticks().0) + 2
}

/// The environment broke its promise: timing failures lasted beyond the
/// configured bound and the round budget ran out before a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundExceeded {
    /// The configured round budget.
    pub rounds: u64,
}

impl fmt::Display for BoundExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no decision within {} rounds: timing failures outlasted the configured bound",
            self.rounds
        )
    }
}

impl std::error::Error for BoundExceeded {}

/// Bounded-failure consensus over real atomics: [`ConsensusSpec`] capped
/// at the round budget, run by the crate's native driver over a
/// [`DenseSpace`] allocated whole at construction, `decide` and the
/// `x`/`y` registers of every round in the budget — unlike [`crate::consensus::NativeConsensus`],
/// whose space allocates a chunk at the first write into it.
pub struct BoundedNativeConsensus {
    driver: Driver<ConsensusSpec, DenseSpace>,
}

impl BoundedNativeConsensus {
    /// An instance budgeting for timing failures lasting at most
    /// `failure_bound`, with `delay(Δ)` estimate `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is zero.
    pub fn new(failure_bound: Duration, delta: Duration) -> BoundedNativeConsensus {
        assert!(!delta.is_zero(), "Δ must be positive");
        let rounds = (failure_bound.as_nanos() as u64).div_ceil(delta.as_nanos() as u64) + 2;
        Self::with_rounds(rounds as usize, delta)
    }

    /// An instance with an explicit round budget (used by tests and by
    /// callers that compute their own bound).
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn with_rounds(rounds: usize, delta: Duration) -> BoundedNativeConsensus {
        assert!(rounds > 0, "at least one round is required");
        let spec = ConsensusSpec::native().max_rounds(rounds as u64);
        // The layout's last register is `x[R, 1]`, at 3R + 2.
        let space = DenseSpace::new(3 * rounds + 3);
        BoundedNativeConsensus {
            driver: Driver::new(spec, space, delta),
        }
    }

    /// The round budget.
    pub fn rounds(&self) -> usize {
        self.driver.spec.max_rounds as usize
    }

    /// Atomic registers the algorithm uses (`3R + 1`).
    pub fn register_count(&self) -> usize {
        3 * self.rounds() + 1
    }

    /// Proposes `input`; blocks until a decision is reached.
    ///
    /// # Errors
    ///
    /// Returns [`BoundExceeded`] if the round budget runs out — possible
    /// only if timing failures lasted beyond the configured bound.
    pub fn propose(&self, input: bool) -> Result<bool, BoundExceeded> {
        match self.driver.run(&mut ConsensusState::proposing(input)) {
            Some(decided) => Ok(decided == 1),
            None => Err(BoundExceeded {
                rounds: self.driver.spec.max_rounds,
            }),
        }
    }

    /// The decision, if one has been reached.
    pub fn decision(&self) -> Option<bool> {
        match self.driver.space.read(0) {
            0 => None,
            d => Some(d == 2),
        }
    }
}

impl fmt::Debug for BoundedNativeConsensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoundedNativeConsensus")
            .field("rounds", &self.rounds())
            .field("decision", &self.decision())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tfr_modelcheck::{Explorer, SafetySpec};
    use tfr_registers::accounting::RegisterCount;
    use tfr_registers::spec::Obs;
    use tfr_registers::ProcId;
    use tfr_sim::metrics::consensus_stats;
    use tfr_sim::timing::{standard_no_failures, FailureWindows, Window};
    use tfr_sim::{RunConfig, Sim};

    #[test]
    fn round_budget_formula() {
        let d = Delta::from_ticks(100);
        assert_eq!(rounds_for_bound(Ticks(0), d), 2);
        assert_eq!(rounds_for_bound(Ticks(1), d), 3);
        assert_eq!(rounds_for_bound(Ticks(100), d), 3);
        assert_eq!(rounds_for_bound(Ticks(101), d), 4);
        assert_eq!(rounds_for_bound(Ticks(1000), d), 12);
    }

    /// Algorithm 1 for failures lasting at most `bound`.
    fn bounded(inputs: Vec<bool>, bound: Ticks, d: Delta) -> ConsensusSpec {
        ConsensusSpec::new(inputs)
            .with_delta(d.ticks())
            .max_rounds(rounds_for_bound(bound, d))
    }

    #[test]
    fn register_count_is_finite() {
        let d = Delta::from_ticks(100);
        let spec = bounded(vec![true, false], Ticks(500), d);
        assert_eq!(spec.registers(), RegisterCount::Finite(22));
        assert_eq!(
            ConsensusSpec::new(vec![true]).registers(),
            RegisterCount::Unbounded
        );
    }

    #[test]
    fn decides_when_failures_respect_the_bound() {
        // Failures confined to [0, B]: every seed decides within the
        // budget, so the finite registers suffice (the §2.1 remark).
        let d = Delta::from_ticks(100);
        let bound = Ticks(800);
        for seed in 0..50 {
            let spec = bounded(vec![seed % 2 == 0, true, false], bound, d);
            let model = FailureWindows::new(
                standard_no_failures(d, seed),
                vec![Window {
                    from: Ticks::ZERO,
                    to: bound,
                    pids: Some(vec![ProcId(seed as usize % 3)]),
                    inflated: Ticks(350),
                }],
            );
            let result = Sim::new(spec, RunConfig::new(3, d), model).run();
            let stats = consensus_stats(&result);
            assert!(stats.agreement, "seed={seed}");
            assert!(
                stats.all_decided_by.is_some(),
                "seed={seed}: must decide within budget"
            );
            let gave_up = result
                .events(|o| match o {
                    Obs::Note("round-bound-exceeded", r) => Some(*r),
                    _ => None,
                })
                .count();
            assert_eq!(gave_up, 0, "seed={seed}: nobody exhausts the budget");
        }
    }

    #[test]
    fn spec_reports_bound_exceeded_under_forced_overrun() {
        // The E3b-style adversary forces more conflict rounds than the
        // budget allows: the spec form reports it instead of deciding.
        use tfr_sim::timing::{Fate, Scripted};
        let d = Delta::from_ticks(100);
        // Budget of 3 rounds (B = Δ), adversary forces 6.
        assert_eq!(rounds_for_bound(Ticks(100), d), 3);
        let spec = bounded(vec![false, true], Ticks(100), d);
        let mut model = Scripted::new(Ticks(10));
        for k in 0..6 {
            if k > 0 {
                model = model.set(ProcId(0), 7 * k, Fate::Take(Ticks(260)));
            }
            model = model.set(ProcId(0), 7 * k + 6, Fate::Take(Ticks(150))).set(
                ProcId(1),
                7 * k + 3,
                Fate::Take(Ticks(400)),
            );
        }
        let result = Sim::new(spec, RunConfig::new(2, d), model).run();
        let stats = consensus_stats(&result);
        assert!(stats.agreement, "safety holds even past the bound");
        let gave_up = result
            .events(|o| match o {
                Obs::Note("round-bound-exceeded", r) => Some(*r),
                _ => None,
            })
            .count();
        assert!(gave_up > 0, "the overrun must be reported");
    }

    #[test]
    fn modelcheck_bounded_spec_safety() {
        let d = Delta::from_ticks(100);
        let spec = bounded(vec![false, true], Ticks(100), d);
        let report = Explorer::new(spec, 2).check(&SafetySpec::consensus(vec![0, 1]));
        assert!(report.proven_safe(), "{:?}", report.violation);
    }

    #[test]
    fn native_solo_and_concurrent() {
        let c = BoundedNativeConsensus::new(Duration::from_micros(100), Duration::from_micros(5));
        assert_eq!(c.propose(true), Ok(true));
        assert_eq!(c.decision(), Some(true));

        for trial in 0..10 {
            let c = Arc::new(BoundedNativeConsensus::new(
                Duration::from_millis(5),
                Duration::from_micros(5),
            ));
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || c.propose((i + trial) % 2 == 0))
                })
                .collect();
            let outs: Vec<bool> = handles
                .into_iter()
                .map(|h| h.join().unwrap().expect("within budget"))
                .collect();
            assert!(outs.windows(2).all(|w| w[0] == w[1]), "trial {trial}");
        }
    }

    #[test]
    fn native_register_count_and_rounds() {
        let c = BoundedNativeConsensus::with_rounds(5, Duration::from_micros(1));
        assert_eq!(c.rounds(), 5);
        assert_eq!(c.register_count(), 16);
    }

    #[test]
    fn native_error_is_well_formed() {
        let e = BoundExceeded { rounds: 3 };
        assert!(e.to_string().contains("3 rounds"));
        let _: &dyn std::error::Error = &e;
    }

    #[test]
    fn native_concurrent_never_disagrees_even_with_tiny_budget() {
        // rounds = 1 with opposite inputs: a conflict in round 1 yields
        // BoundExceeded for some processes, but the ones that decide must
        // agree — safety is unconditional.
        for _ in 0..50 {
            let c = Arc::new(BoundedNativeConsensus::with_rounds(
                1,
                Duration::from_nanos(1),
            ));
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || c.propose(i == 0))
                })
                .collect();
            let outs: Vec<Result<bool, BoundExceeded>> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            let decided: Vec<bool> = outs.iter().filter_map(|r| r.ok()).collect();
            assert!(decided.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
        }
    }
}
