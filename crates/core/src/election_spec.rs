//! Leader election in **specification form**: the bit-by-bit reduction
//! from binary consensus expressed as a register automaton, so election
//! itself can be simulated under timing-failure injection and **model
//! checked exhaustively**.
//!
//! §1.4/§2.1 of the paper: the consensus building block yields wait-free,
//! time-resilient election. This is the construction the native
//! [`crate::universal::MultiConsensus`] runs for every multivalued
//! decision — it agrees on the winner's pid over the same `W` Algorithm 1
//! instances and returns the value that pid announced — so a solo
//! native `propose_fresh` makes exactly this automaton's accesses, and a
//! solo `propose` adds one read of its own announce register after the
//! first. The native forms ([`crate::derived`], the universal
//! construction, the replicated log) inherit the guarantee by
//! construction; this automaton lets the tools *verify* it over every
//! interleaving for small configurations.
//!
//! # Protocol (process `i`, `W = ⌈log₂ n⌉` bit instances)
//!
//! 1. probe: read instance `W−1`'s `decide`. Reading it before announcing
//!    is what a slow process does: a read has no side effects, and it
//!    does not depend on the proposal;
//! 2. announce: `announce[i] := i + 1`;
//! 3. for bit `k = W−1 .. 0`: run Algorithm 1 instance `k` proposing bit
//!    `k` of the current candidate — instance `W−1` taking the probed
//!    value as its first loop check's read, where the native form takes
//!    the slot read's; if the decided bit differs, scan the
//!    announce array for some announced id matching the decided prefix
//!    (one exists — the decided bit's proposer announced first) and adopt
//!    it;
//! 4. the candidate now equals the decided bit string: write
//!    `result := candidate + 1` and emit the candidate as the elected
//!    leader. Every process that writes `result` writes the one elected
//!    candidate, which is what lets the native form serve the write as an
//!    agreed write; [`ElectionSpec::result_reg`] names the register for
//!    the model checker's invariant.
//!
//! When instance 0 decides the bit it was proposed by writing its
//! `decide`, the candidate is already the elected one, and the native
//! form sends that `decide` and `result` as one group of two agreed
//! writes, which may land in either order. Each process writes the pair
//! once, so the automaton takes the order per process:
//! [`ElectionSpec::result_first`] names the processes that write `result`
//! first, and checking every mask explores both orders of every
//! process's pair against every interleaving.

use crate::consensus::ConsensusSpec;
use crate::universal::pid_bits;
use tfr_registers::spec::{Action, Automaton, Obs};
use tfr_registers::{ProcId, RegId, Ticks};

/// Register budget per embedded consensus instance: decide + 3 registers
/// per round for up to [`ElectionSpec::INNER_ROUNDS`] rounds.
const INSTANCE_STRIDE: u64 = 3 * ElectionSpec::INNER_ROUNDS + 1;

/// Wait-free leader election as a register automaton.
///
/// Register layout (from `base`): `announce[j]` at `base + j`; consensus
/// instance `k` occupies `base + n + k·stride`; `result` follows the last
/// instance, at `base + n + W·stride`.
#[derive(Debug, Clone)]
pub struct ElectionSpec {
    n: usize,
    width: u32,
    base: u64,
    delta: Ticks,
    inner_rounds: u64,
    /// Bit `i` set: process `i` writes `result` before instance 0's
    /// `decide` when it sends the two together.
    result_first: u64,
}

impl ElectionSpec {
    /// Round cap per embedded consensus instance — generous for any
    /// realistic failure pattern (a process reaches round r only after
    /// (r−1)·Δ of delays).
    pub const INNER_ROUNDS: u64 = 64;

    /// An election among `n` processes, registers from `base`, `delay(Δ)`
    /// estimate `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, base: u64, delta: Ticks) -> ElectionSpec {
        assert!(n > 0, "at least one process is required");
        ElectionSpec {
            n,
            width: pid_bits(n),
            base,
            delta,
            inner_rounds: Self::INNER_ROUNDS,
            result_first: 0,
        }
    }

    /// Makes the processes whose bit is set in `mask` write the group of
    /// instance 0's `decide` and `result` in the other order, `result`
    /// first (by default every process writes `decide` first, the native
    /// form's order on shared memory).
    pub fn result_first(mut self, mask: u64) -> ElectionSpec {
        self.result_first = mask;
        self
    }

    /// Overrides the per-instance round cap (the model checker uses a
    /// small cap to keep the state space finite; safety is unaffected).
    pub fn inner_rounds(mut self, r: u64) -> ElectionSpec {
        self.inner_rounds = r;
        self
    }

    fn announce(&self, j: usize) -> RegId {
        RegId(self.base + j as u64)
    }

    /// The register the elected candidate is published in, `+ 1` (0 =
    /// none yet).
    pub fn result_reg(&self) -> RegId {
        RegId(self.base + self.n as u64 + self.width as u64 * INSTANCE_STRIDE)
    }

    /// The embedded consensus automaton for bit `k`, parameterized by the
    /// proposed bit of each... the inner automaton's `inputs` are
    /// irrelevant here because the wrapper seeds each process's inner
    /// state with its *current candidate's* bit; a uniform placeholder is
    /// used and the preference is overridden at instance start.
    fn instance(&self, k: u32, proposal: bool) -> ConsensusSpec {
        // One single-process input vector is enough: the wrapper always
        // inits the instance for the acting process with its own proposal.
        ConsensusSpec::new(vec![proposal])
            .with_base(self.base + self.n as u64 + k as u64 * INSTANCE_STRIDE)
            .max_rounds(self.inner_rounds)
            .with_delta(self.delta)
    }
}

/// Where a process is in the election protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pc {
    /// Read instance `W−1`'s `decide`.
    Probe,
    /// `announce[i] := i + 1`, having probed `seen`.
    Announce { seen: u64 },
    /// Driving consensus instance `k` with the inner state.
    Bit {
        k: u32,
        inner: <ConsensusSpec as Automaton>::State,
    },
    /// Instance 0 is about to write its `decide` of the candidate's bit,
    /// and `result` went out first.
    DecideAfterResult {
        inner: <ConsensusSpec as Automaton>::State,
    },
    /// Adoption scan after instance `k` decided `bit`: looking for an
    /// announced id matching `prefix` (the decided bits from the top down
    /// through `k`).
    Scan { k: u32, j: usize, prefix: u64 },
    /// `result := candidate + 1`, then emit the candidate.
    WriteResult,
    /// Elected; halted.
    Done,
}

/// Per-process state of [`ElectionSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ElectionState {
    pid: ProcId,
    pc: Pc,
    candidate: u64,
}

impl ElectionSpec {
    /// Instance `W−1`'s `decide`, the register the probe reads.
    fn top_decide(&self) -> RegId {
        self.instance(self.width - 1, false).decide_reg()
    }

    /// Whether `s`, in instance `k` about to take `action`, writes
    /// `result` now: it is instance 0's write of the candidate's own bit
    /// to `decide`, and `s` takes the pair `result` first.
    fn writes_result_first(&self, s: &ElectionState, k: u32, action: Action) -> bool {
        let proposal = s.candidate & 1 == 1;
        let decide = self.instance(0, proposal).decide_reg();
        k == 0
            && self.result_first >> s.pid.0 & 1 == 1
            && action == Action::Write(decide, crate::consensus::enc(proposal))
    }

    /// Enters bit instance `k` (or, past bit 0, the `result` write) with
    /// the current candidate.
    fn enter_bit(&self, s: &mut ElectionState, k_next: i64) {
        if k_next < 0 {
            s.pc = Pc::WriteResult;
        } else {
            let k = k_next as u32;
            let proposal = (s.candidate >> k) & 1 == 1;
            let inner = self.instance(k, proposal).init(ProcId(0));
            s.pc = Pc::Bit { k, inner };
        }
    }

    /// Steps bit instance `k`'s inner automaton on `observed`, then
    /// moves on if it decided: to the next bit, or to the adoption scan
    /// if the decided bit is not the candidate's.
    fn step_bit(
        &self,
        s: &mut ElectionState,
        k: u32,
        mut inner: <ConsensusSpec as Automaton>::State,
        observed: Option<u64>,
        obs: &mut Vec<Obs>,
    ) {
        let proposal = (s.candidate >> k) & 1 == 1;
        let mut inner_obs = Vec::new();
        self.instance(k, proposal)
            .apply(&mut inner, observed, &mut inner_obs);
        for o in inner_obs {
            match o {
                Obs::Decided(b) => {
                    let decided = b == 1;
                    if decided == proposal {
                        self.enter_bit(s, k as i64 - 1);
                    } else {
                        // Adopt: find an announced id matching the
                        // decided prefix (bits width-1..=k).
                        let prefix = (s.candidate >> (k + 1) << 1) | decided as u64;
                        s.pc = Pc::Scan { k, j: 0, prefix };
                    }
                    return;
                }
                Obs::Note(tag, v) => {
                    // Inner round budget exhausted (only possible under
                    // pathological failure lengths): give up without
                    // electing — safety intact.
                    obs.push(Obs::Note(tag, v));
                    s.pc = Pc::Done;
                    return;
                }
                _ => {}
            }
        }
        // Instance still running.
        s.pc = Pc::Bit { k, inner };
    }
}

impl Automaton for ElectionSpec {
    type State = ElectionState;

    fn init(&self, pid: ProcId) -> Self::State {
        assert!(pid.0 < self.n, "pid out of range");
        ElectionState {
            pid,
            pc: Pc::Probe,
            candidate: pid.0 as u64,
        }
    }

    fn next_action(&self, s: &Self::State) -> Action {
        match &s.pc {
            Pc::Probe => Action::Read(self.top_decide()),
            Pc::Announce { .. } => Action::Write(self.announce(s.pid.0), s.pid.0 as u64 + 1),
            Pc::Bit { k, inner } => {
                let proposal = (s.candidate >> k) & 1 == 1;
                let action = self.instance(*k, proposal).next_action(inner);
                if self.writes_result_first(s, *k, action) {
                    Action::Write(self.result_reg(), s.candidate + 1)
                } else {
                    action
                }
            }
            Pc::DecideAfterResult { inner } => {
                self.instance(0, s.candidate & 1 == 1).next_action(inner)
            }
            Pc::Scan { j, .. } => Action::Read(self.announce(*j)),
            Pc::WriteResult => Action::Write(self.result_reg(), s.candidate + 1),
            Pc::Done => Action::Halt,
        }
    }

    fn apply(&self, s: &mut Self::State, observed: Option<u64>, obs: &mut Vec<Obs>) {
        // Take the pc by value to drive the transition without overlapping
        // borrows of `s`.
        let pc = std::mem::replace(&mut s.pc, Pc::Done);
        match pc {
            Pc::Probe => {
                let seen = observed.expect("read observes");
                s.pc = Pc::Announce { seen };
            }
            Pc::Announce { seen } => {
                // Instance W−1's first loop check reads what the probe saw.
                let k = self.width - 1;
                let inner = self
                    .instance(k, (s.candidate >> k) & 1 == 1)
                    .init(ProcId(0));
                self.step_bit(s, k, inner, Some(seen), obs);
            }
            Pc::Bit { k, inner } => {
                let action = self
                    .instance(k, (s.candidate >> k) & 1 == 1)
                    .next_action(&inner);
                if self.writes_result_first(s, k, action) {
                    s.pc = Pc::DecideAfterResult { inner };
                } else {
                    self.step_bit(s, k, inner, observed, obs);
                }
            }
            Pc::DecideAfterResult { mut inner } => {
                // The write of `decide` decides the candidate's bit, and
                // with it the candidate, whose `result` is written.
                self.instance(0, s.candidate & 1 == 1)
                    .apply(&mut inner, observed, &mut Vec::new());
                obs.push(Obs::Decided(s.candidate));
                s.pc = Pc::Done;
            }
            Pc::Scan { k, j, prefix } => {
                let raw = observed.expect("read observes");
                let matches = raw != 0 && (raw - 1) >> k == prefix;
                if matches {
                    s.candidate = raw - 1;
                    self.enter_bit(s, k as i64 - 1);
                } else {
                    // The matching announcement is linearized before the
                    // bit decision (announce precedes propose in program
                    // order), so a full scan finds it; wrap defensively
                    // rather than panic if the bank was tampered with.
                    let j = if j + 1 >= self.n { 0 } else { j + 1 };
                    s.pc = Pc::Scan { k, j, prefix };
                }
            }
            Pc::WriteResult => {
                obs.push(Obs::Decided(s.candidate));
                s.pc = Pc::Done;
            }
            Pc::Done => unreachable!("halted process stepped"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_modelcheck::{Explorer, SafetySpec};
    use tfr_registers::bank::ArrayBank;
    use tfr_registers::spec::run_solo;
    use tfr_registers::Delta;
    use tfr_sim::metrics::consensus_stats;
    use tfr_sim::timing::{standard_no_failures, CrashSchedule, UniformAccess};
    use tfr_sim::{RunConfig, Sim};

    #[test]
    fn solo_elects_itself() {
        for n in [1usize, 2, 5, 8] {
            for pid in [0, n - 1] {
                let mut bank = ArrayBank::new();
                let run = run_solo(
                    &ElectionSpec::new(n, 0, Ticks(100)),
                    ProcId(pid),
                    &mut bank,
                    500,
                );
                assert_eq!(run.decision(), Some(pid as u64), "n={n} pid={pid}");
            }
        }
    }

    #[test]
    fn sim_all_agree_on_a_participant() {
        let d = Delta::from_ticks(100);
        for n in [2usize, 3, 5] {
            for seed in 0..30 {
                let spec = ElectionSpec::new(n, 0, d.ticks());
                let result =
                    Sim::new(spec, RunConfig::new(n, d), standard_no_failures(d, seed)).run();
                let stats = consensus_stats(&result);
                assert!(stats.agreement, "n={n} seed={seed}");
                let leader = stats.decided_value.expect("everyone elects");
                assert!(leader < n as u64, "leader must be a real process");
                assert!(stats.all_decided_by.is_some(), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn sim_safe_under_timing_failures_and_crashes() {
        let d = Delta::from_ticks(100);
        for seed in 0..20 {
            let n = 4;
            let spec = ElectionSpec::new(n, 0, d.ticks()).inner_rounds(30);
            let base = UniformAccess::new(Ticks(10), Ticks(500), seed);
            let model = CrashSchedule::new(base, vec![(ProcId(1), Ticks(700))]);
            let config = RunConfig::new(n, d).max_steps(200_000);
            let result = Sim::new(spec, config, model).run();
            let stats = consensus_stats(&result);
            assert!(stats.agreement, "seed={seed}");
            if let Some(leader) = stats.decided_value {
                assert!(leader < n as u64, "seed={seed}");
            }
        }
    }

    #[test]
    fn modelcheck_two_process_election_exhaustive() {
        // Election for n=2 is one bit instance plus announce/adopt; check
        // agreement and leader-is-a-participant over ALL interleavings,
        // and that `result` and the instance's `decide` never hold two
        // different values written or pending (the obligation behind
        // their agreed writes) — for each process sending the pair of
        // `decide` and `result` in either order.
        for mask in 0..4 {
            let spec = ElectionSpec::new(2, 0, Ticks(100))
                .inner_rounds(2)
                .result_first(mask);
            let decide = spec.instance(0, false).decide_reg();
            let safety = SafetySpec {
                agreed_writes: vec![spec.result_reg(), decide],
                ..SafetySpec::consensus(vec![0, 1])
            };
            let report = Explorer::new(spec, 2).check(&safety);
            assert!(report.proven_safe(), "mask {mask}: {:?}", report.violation);
            assert!(report.states_explored > 50);
        }
    }

    #[test]
    fn result_first_swaps_the_solo_pair_and_elects_the_same() {
        use tfr_registers::bank::RegisterBank;
        for n in [1usize, 2, 5] {
            let pid = ProcId(n - 1);
            // A solo run's actions, and what it elected.
            let run = |spec: ElectionSpec| {
                let (mut bank, mut s) = (ArrayBank::new(), spec.init(pid));
                let (mut actions, mut obs) = (Vec::new(), Vec::new());
                loop {
                    let action = spec.next_action(&s);
                    let observed = match action {
                        Action::Read(r) => Some(bank.read(r)),
                        Action::Write(r, v) => {
                            bank.write(r, v);
                            None
                        }
                        _ => break,
                    };
                    spec.apply(&mut s, observed, &mut obs);
                    actions.push(action);
                }
                (actions, obs)
            };
            let spec = ElectionSpec::new(n, 0, Ticks(100));
            let (decide_first, obs) = run(spec.clone());
            let (mut result_first, swapped_obs) = run(spec.result_first(1 << pid.0));
            assert_eq!(obs.last(), Some(&Obs::Decided(pid.0 as u64)), "n={n}");
            assert_eq!(swapped_obs.last(), obs.last(), "n={n}: the same leader");
            let len = result_first.len();
            result_first.swap(len - 2, len - 1);
            assert_eq!(result_first, decide_first, "n={n}: the last two swapped");
        }
    }

    #[test]
    fn crashed_winner_candidate_is_still_consistent() {
        // p1 crashes mid-election; p0 must still elect *someone* and that
        // someone is a fixed participant.
        let d = Delta::from_ticks(100);
        let spec = ElectionSpec::new(2, 0, d.ticks());
        let model = CrashSchedule::new(standard_no_failures(d, 3), vec![(ProcId(1), Ticks(150))]);
        let result = Sim::new(spec, RunConfig::new(2, d), model).run();
        let (_, v) = result.decision_of(ProcId(0)).expect("survivor elects");
        assert!(v < 2);
    }

    #[test]
    fn register_regions_do_not_collide_with_offset() {
        // Two elections at different bases in one bank stay independent.
        use tfr_registers::bank::RegisterBank;
        let mut bank = ArrayBank::new();
        let a = ElectionSpec::new(2, 0, Ticks(100));
        let b = ElectionSpec::new(2, 10_000, Ticks(100));
        let run_a = run_solo(&a, ProcId(0), &mut bank, 500);
        let run_b = run_solo(&b, ProcId(1), &mut bank, 500);
        assert_eq!(run_a.decision(), Some(0));
        assert_eq!(
            run_b.decision(),
            Some(1),
            "second election must not see the first's state"
        );
        assert_ne!(bank.read(RegId(0)), 0, "announce of election A present");
        assert_ne!(
            bank.read(RegId(10_001)),
            0,
            "announce of election B present"
        );
    }
}
