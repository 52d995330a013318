//! Leader election in **specification form**: the bit-by-bit reduction
//! from binary consensus expressed as a register automaton, so election
//! itself can be simulated under timing-failure injection and **model
//! checked exhaustively**.
//!
//! §1.4/§2.1 of the paper: the consensus building block yields wait-free,
//! time-resilient election. This automaton is the election the native
//! [`crate::universal::MultiConsensus`] runs for every multivalued
//! decision, through the crate's native driver: it agrees on the winner's
//! pid over `W` Algorithm 1 instances and decides the value that pid
//! announced. The objects built on it ([`crate::derived`], the universal
//! construction, the replicated log) inherit the guarantee by
//! construction; the model checker verifies it over every interleaving
//! for small configurations.
//!
//! # Protocol (process `i` proposing `v`, `W = ⌈log₂ n⌉` bit instances)
//!
//! 1. probe: read instance `W−1`'s `decide`. This is that instance's first
//!    loop check, taken early: a read has no side effects and does not
//!    depend on the proposal, so reading before announcing is what a slow
//!    process does. A native caller that has read it already
//!    ([`crate::universal::MultiConsensus::probe`]) starts past it;
//! 2. with the standing read, read `announce[i]`: a value a predecessor
//!    incarnation announced stands, and is proposed instead of `v`;
//! 3. announce: `announce[i] := v + 1`, an owned write (only `i` writes
//!    it), unless a standing value was found. When the probe saw instance
//!    `W−1` undecided, the next step is that instance's first write of
//!    `x`, and the two go out as one group: a group keeps the order of
//!    its owned and agreed writes for every reader, so no reader that
//!    sees the `x` misses the announcement;
//! 4. for bit `k = W−1 .. 0`: run Algorithm 1 instance `k` proposing bit
//!    `k` of the backed pid — instance `W−1` taking the probed value as
//!    its first loop check's read; if the decided bit differs, scan the
//!    announcements of the pids with the decided prefix for one that is
//!    set (one is — the decided bit's proposer announced first) and back
//!    that pid and its value;
//! 5. the backed pid now equals the decided bit string: write
//!    `result := value + 1` and decide the value. Every process that
//!    writes `result` writes the one decided value, so the write is
//!    agreed.
//!
//! When instance 0 decides the bit it was proposed by writing its
//! `decide`, the backed pid is already the elected one, and that `decide`
//! and `result` go out as one group of two agreed writes, which may land
//! in either order. Each process writes the pair once, so the automaton
//! takes the order per process: [`ElectionSpec::result_first`] names the
//! processes that write `result` first, and checking every mask explores
//! both orders of every process's pair against every interleaving. The
//! pair only publishes a decision already fixed
//! (`ElectionSpec::publishes`), so a caller may hold it back and send it
//! later: to every other process, one that has not sent it yet looks like
//! one that crashed just before it, a state crashes reach anyway.
//!
//! # Register layout (from `base`)
//!
//! `result` at 0; `announce[i]` at `1 + i`; register `j` of pid bit `k`'s
//! instance at `1 + n + k + j·W`, so the `W` instances interleave and
//! each runs unbounded rounds. Instance `W−1`'s `decide`, at `n + W`,
//! and `result` are a run of two with stride `n + W`: the probe.

use crate::consensus::{ConsensusSpec, ConsensusState};
use crate::universal::pid_bits;
use tfr_registers::chaos::points;
use tfr_registers::space::WriteKind;
use tfr_registers::spec::{Action, Automaton, Joint, Label, Obs};
use tfr_registers::{ProcId, RegId, Ticks};

/// Wait-free multivalued election as a register automaton: process `i`
/// proposes value `i` (see [`ElectionSpec`]'s module for the protocol and
/// the layout).
#[derive(Debug, Clone)]
pub struct ElectionSpec {
    n: usize,
    width: u32,
    base: u64,
    /// Algorithm 1 for one pid bit, its registers relative to the
    /// instance's `decide` and `W` apart.
    bit: ConsensusSpec,
    /// Whether every process reads its standing announcement.
    standing: bool,
    /// Bit `i` set: process `i` writes `result` before instance 0's
    /// `decide` when it sends the two together.
    result_first: u64,
}

impl ElectionSpec {
    /// An election among `n` processes, registers from `base`, `delay(Δ)`
    /// estimate `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, base: u64, delta: Ticks) -> ElectionSpec {
        assert!(n > 0, "at least one process is required");
        let width = pid_bits(n);
        ElectionSpec {
            n,
            width,
            base,
            bit: ConsensusSpec::native()
                .strided(width as u64)
                .with_delta(delta),
            standing: false,
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

    /// Caps each instance's rounds (the model checker uses a small cap to
    /// keep the state space finite; safety is unaffected). The native
    /// form runs unbounded rounds.
    pub fn inner_rounds(mut self, r: u64) -> ElectionSpec {
        self.bit = self.bit.max_rounds(r);
        self
    }

    /// Makes every process read its standing announcement first, as
    /// [`crate::universal::MultiConsensus::propose`] does.
    #[cfg(test)]
    pub(crate) fn standing_read(mut self) -> ElectionSpec {
        self.standing = true;
        self
    }

    /// Number of processes.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// The register the decided value is published in, `+ 1` (0 = none
    /// yet).
    #[inline(always)]
    pub(crate) fn result_reg(&self) -> RegId {
        RegId(self.base)
    }

    #[inline(always)]
    pub(crate) fn announce(&self, i: usize) -> RegId {
        RegId(self.base + 1 + i as u64)
    }

    /// Instance `W−1`'s `decide`, the register the probe reads.
    #[inline(always)]
    pub(crate) fn top_decide(&self) -> RegId {
        self.at(self.width - 1, self.bit.decide_reg())
    }

    /// Register `reg` of instance `k` in the election's layout.
    #[inline(always)]
    fn at(&self, k: u32, reg: RegId) -> RegId {
        RegId(self.base + 1 + self.n as u64 + k as u64 + reg.0)
    }

    /// Process `pid` about to propose `value`, reading its standing
    /// announcement first if `standing`. With `probed`, the process has
    /// read the probe already and starts past it, as if its read had
    /// returned that value.
    #[inline(always)]
    pub(crate) fn start(
        &self,
        pid: ProcId,
        value: u64,
        standing: bool,
        probed: Option<u64>,
    ) -> ElectionState {
        assert!(pid.0 < self.n, "pid out of range");
        let pc = match probed {
            None => Pc::Probe { standing },
            Some(seen) => Pc::probed(seen, standing),
        };
        ElectionState {
            pid,
            pc,
            leader: pid.0,
            value,
        }
    }
}

/// Where a process is in the election protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    /// Read instance `W−1`'s `decide`, then the standing announcement if
    /// `standing`.
    Probe { standing: bool },
    /// Read `announce[pid]`, having probed `seen`.
    Standing { seen: u64 },
    /// `announce[pid] := value + 1`, having probed `seen`.
    Announce { seen: u64 },
    /// Driving pid bit `k`'s instance.
    Bit { k: u32, inner: ConsensusState },
    /// Instance 0 is about to write its `decide` of the backed pid's bit,
    /// and `result` went out first.
    DecideAfterResult { inner: ConsensusState },
    /// Instance `k` decided against the backed pid: reading
    /// `announce[j]`, for `j` among the pids with the decided prefix.
    Scan { k: u32, j: usize },
    /// `result := value + 1`, then decide the value.
    WriteResult,
    /// Decided; halted.
    Done,
}

impl Pc {
    /// Where a process that probed `seen` goes next.
    fn probed(seen: u64, standing: bool) -> Pc {
        if standing {
            Pc::Standing { seen }
        } else {
            Pc::Announce { seen }
        }
    }
}

/// Per-process state of [`ElectionSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ElectionState {
    pid: ProcId,
    pc: Pc,
    /// The pid this process backs, and the value that pid announced.
    leader: usize,
    value: u64,
}

impl ElectionSpec {
    /// Whether `s`'s next step is the group of instance 0's `decide` of
    /// the backed pid's bit and `result`: Algorithm 1 has decided that
    /// bit, so the pid and its value are fixed, and the group only
    /// publishes them.
    #[inline(always)]
    pub(crate) fn publishes(&self, s: &ElectionState) -> bool {
        matches!(s.pc, Pc::Bit { k, ref inner } if self.paired(s, k, inner).is_some())
    }

    /// Whether `s`'s next step in instance `k` is instance 0's write of the
    /// backed pid's bit to `decide`, which goes out in one group with
    /// `result`, and if so whether `s` writes `result` first.
    #[inline(always)]
    fn paired(&self, s: &ElectionState, k: u32, inner: &ConsensusState) -> Option<bool> {
        let bit = s.leader & 1 == 1;
        (k == 0 && self.bit.writes_decide(inner) == Some(bit)).then(|| {
            let mask = self.result_first.checked_shr(s.pid.0 as u32).unwrap_or(0);
            mask & 1 == 1
        })
    }

    /// Enters the instance below `k` with the backed pid's bit, or, past
    /// bit 0, the write of `result`.
    #[inline(always)]
    fn below(&self, s: &ElectionState, k: u32) -> Pc {
        match k.checked_sub(1) {
            Some(k) => Pc::Bit {
                k,
                inner: ConsensusState::proposing((s.leader >> k) & 1 == 1),
            },
            None => Pc::WriteResult,
        }
    }

    /// Scans from pid `j` for an announcement among the pids whose bits
    /// from `k` up are `prefix`.
    fn scan(&self, k: u32, j: usize, prefix: usize) -> Pc {
        if j >= ((prefix + 1) << k).min(self.n) {
            unreachable!(
                "bit {k} decided, but no announced pid matches prefix {prefix:#b} — \
                 violates the announce-before-propose invariant"
            );
        }
        Pc::Scan { k, j }
    }

    /// Steps instance `k`'s automaton on `observed`, then moves on if it
    /// decided: to the instance below, or to the scan if the decided bit
    /// is not the backed pid's. The instance's round starts stay its own.
    #[inline(always)]
    fn step_bit(
        &self,
        s: &mut ElectionState,
        k: u32,
        mut inner: ConsensusState,
        observed: Option<u64>,
        obs: &mut Vec<Obs>,
    ) {
        s.pc = match self.bit.advance(&mut inner, observed) {
            None | Some(Obs::StartedRound(_)) => Pc::Bit { k, inner },
            Some(Obs::Decided(bit)) => {
                let decided = bit == 1;
                if decided == ((s.leader >> k) & 1 == 1) {
                    self.below(s, k)
                } else {
                    let prefix = (s.leader >> (k + 1) << 1) | decided as usize;
                    self.scan(k, prefix << k, prefix)
                }
            }
            Some(note) => {
                // Round cap exhausted (the explorer's cap): give up
                // without deciding — safety intact.
                obs.push(note);
                Pc::Done
            }
        };
    }
}

impl Automaton for ElectionSpec {
    type State = ElectionState;

    fn init(&self, pid: ProcId) -> Self::State {
        self.start(pid, pid.0 as u64, self.standing, None)
    }

    #[inline(always)]
    fn next_action(&self, s: &Self::State) -> Action {
        self.next_step(s).0
    }

    #[inline]
    fn apply(&self, s: &mut Self::State, observed: Option<u64>, obs: &mut Vec<Obs>) {
        let top = self.width - 1;
        let first_bit = |s: &ElectionState| ConsensusState::proposing((s.leader >> top) & 1 == 1);
        match s.pc {
            Pc::Probe { standing } => s.pc = Pc::probed(observed.expect("read observes"), standing),
            Pc::Standing { seen } => match observed.expect("read observes") {
                0 => s.pc = Pc::Announce { seen },
                standing => {
                    // The first announcement stands: rewriting it would
                    // let two processes back this pid with different
                    // values. Instance W−1's first loop check reads what
                    // the probe saw.
                    s.value = standing - 1;
                    self.step_bit(s, top, first_bit(s), Some(seen), obs);
                }
            },
            Pc::Announce { seen, .. } => self.step_bit(s, top, first_bit(s), Some(seen), obs),
            Pc::Bit { k, inner } => match self.paired(s, k, &inner) {
                Some(true) => s.pc = Pc::DecideAfterResult { inner },
                _ => self.step_bit(s, k, inner, observed, obs),
            },
            Pc::DecideAfterResult { .. } | Pc::WriteResult => {
                // Writing instance 0's `decide` decides the backed pid's
                // bit, and with it the pid, whose value `result` holds.
                obs.push(Obs::Decided(s.value));
                s.pc = Pc::Done;
            }
            Pc::Scan { k, j } => match observed.expect("read observes") {
                0 => s.pc = self.scan(k, j + 1, j >> k),
                raw => {
                    (s.leader, s.value) = (j, raw - 1);
                    s.pc = self.below(s, k);
                }
            },
            Pc::Done => unreachable!("halted process stepped"),
        }
    }

    #[inline(always)]
    fn label(&self, s: &Self::State) -> Label {
        self.next_step(s).1
    }

    /// The probe is instance `W−1`'s first loop check taken early, and the
    /// announcement, which takes that check into the instance, fires its
    /// [`points::CONSENSUS_ROUND`] once it is done. (A standing
    /// announcement found by the standing read takes the check in without
    /// the point: a recovered incarnation visits one round point fewer.)
    /// The instances' steps carry Algorithm 1's labels. The announcement
    /// is owned, and goes out in one group with the instance's first
    /// write of `x` when the probe saw the instance undecided; `result` is
    /// agreed, and instance 0's `decide` of the backed pid's bit goes out
    /// in one group with it.
    #[inline(always)]
    fn next_step(&self, s: &Self::State) -> (Action, Label) {
        let write = |kind| Label {
            kind,
            ..Label::default()
        };
        // Instance `k`'s step, in the election's layout.
        let at = |k: u32, (action, label): (Action, Label)| {
            let action = match action {
                Action::Read(r) => Action::Read(self.at(k, r)),
                Action::Write(r, v) => Action::Write(self.at(k, r), v),
                other => other,
            };
            (action, label)
        };
        let result = Action::Write(self.result_reg(), s.value + 1);
        let announce = self.announce(s.pid.0);
        match s.pc {
            Pc::Probe { .. } => (Action::Read(self.top_decide()), Label::default()),
            Pc::Standing { .. } => (Action::Read(announce), Label::default()),
            Pc::Announce { seen } => (
                Action::Write(announce, s.value + 1),
                Label {
                    then: Some(points::CONSENSUS_ROUND),
                    // Undecided, instance W−1 writes its `x` next.
                    joint: if seen == 0 {
                        Joint::WithNext
                    } else {
                        Joint::Alone
                    },
                    ..write(WriteKind::Owned)
                },
            ),
            Pc::Bit { k, ref inner } => match self.paired(s, k, inner) {
                None => at(k, self.bit.next_step(inner)),
                Some(true) => (
                    result,
                    Label {
                        joint: Joint::WithNext,
                        ..write(WriteKind::Agreed)
                    },
                ),
                Some(false) => {
                    let (action, label) = at(0, self.bit.next_step(inner));
                    let joint = Joint::WithNext;
                    (action, Label { joint, ..label })
                }
            },
            Pc::DecideAfterResult { ref inner } => at(0, self.bit.next_step(inner)),
            Pc::Scan { j, .. } => (Action::Read(self.announce(j)), Label::default()),
            Pc::WriteResult => (result, write(WriteKind::Agreed)),
            Pc::Done => (Action::Halt, Label::default()),
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
        // their agreed writes) — with and without the standing read, for
        // each process sending the pair of `decide` and `result` in
        // either order.
        for standing in [false, true] {
            for mask in 0..4 {
                let mut spec = ElectionSpec::new(2, 0, Ticks(100))
                    .inner_rounds(2)
                    .result_first(mask);
                if standing {
                    spec = spec.standing_read();
                }
                let report = Explorer::new(spec, 2).check(&SafetySpec::consensus(vec![0, 1]));
                assert!(
                    report.proven_safe(),
                    "standing={standing} mask={mask}: {:?}",
                    report.violation
                );
                assert!(report.states_explored > 50);
            }
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
        assert_ne!(
            bank.read(a.announce(0)),
            0,
            "announce of election A present"
        );
        assert_eq!(b.announce(1), RegId(10_002));
        assert_ne!(
            bank.read(b.announce(1)),
            0,
            "announce of election B present"
        );
    }
}
