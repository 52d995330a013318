//! SplitMix64-seeded corpus of random small automata for differential
//! testing of the explorers.
//!
//! Every corpus automaton runs the *same* straight-line program on all
//! processes (which keeps it honestly [`Symmetric`]): a short sequence
//! of register reads (with a data-dependent forward branch), writes and
//! delays, with consensus decisions or critical-section markers
//! attached to chosen program points. Program counters only move
//! forward, so every corpus automaton is acyclic and all explorers
//! exhaust it — the precondition for comparing verdicts.
//!
//! Two flavors exercise both halves of the symmetry machinery:
//!
//! * **const** programs write small constants; process ids appear in no
//!   register, so every permutation is a symmetry and value relabelling
//!   is the identity;
//! * **token** programs write the writer's `ProcId::token()`; the
//!   symmetry must relabel register *values* too (like Fischer's
//!   `x := token(pid)`), and decisions may test "is the last read mine",
//!   which races into genuine disagreements.

use crate::SafetySpec;
use tfr_registers::rng::SplitMix64;
use tfr_registers::spec::{Action, Automaton, Obs, Perm, Symmetric};
use tfr_registers::{ProcId, RegId, Ticks};

/// What a write stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteVal {
    /// A fixed small constant (1 or 2).
    Const(u64),
    /// The writer's token (`pid + 1`).
    MyToken,
}

/// What a decision reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecideVal {
    /// A fixed value.
    Const(u64),
    /// Parity of the last value read (const flavor only — parity of a
    /// token is not permutation-invariant).
    LastParity,
    /// Whether the last value read is the decider's own token (token
    /// flavor only; invariant under simultaneous pid/value relabelling).
    MineFlag,
}

/// One program step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Read `reg`; fall through on zero, jump `skip` ops forward on
    /// non-zero.
    Read { reg: RegId, skip: usize },
    /// Write `val` to `reg`.
    Write { reg: RegId, val: WriteVal },
    /// A `delay(1)` — no shared access.
    Delay,
}

/// An event attached to the completion of a program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Emission {
    Decide(DecideVal),
    Enter,
    Exit,
}

/// A randomly generated corpus automaton: one shared program, run by
/// every process.
#[derive(Debug, Clone)]
pub struct CorpusAutomaton {
    ops: Vec<Op>,
    emissions: Vec<(usize, Emission)>,
    tokens: bool,
    n: usize,
}

/// Per-process state: owner, program counter, last value read.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CorpusState {
    pid: ProcId,
    pc: usize,
    last: u64,
}

impl CorpusAutomaton {
    fn emissions_at(&self, pc: usize) -> impl Iterator<Item = Emission> + '_ {
        self.emissions
            .iter()
            .filter(move |(at, _)| *at == pc)
            .map(|&(_, e)| e)
    }

    fn permute_token_value(&self, value: u64, perm: &Perm) -> u64 {
        match ProcId::from_token(value) {
            Some(p) if p.0 < self.n => perm.apply_pid(p).token(),
            _ => value,
        }
    }
}

impl Automaton for CorpusAutomaton {
    type State = CorpusState;

    fn init(&self, pid: ProcId) -> CorpusState {
        CorpusState {
            pid,
            pc: 0,
            last: 0,
        }
    }

    fn next_action(&self, s: &CorpusState) -> Action {
        match self.ops.get(s.pc) {
            None => Action::Halt,
            Some(Op::Read { reg, .. }) => Action::Read(*reg),
            Some(Op::Write { reg, val }) => {
                let v = match val {
                    WriteVal::Const(c) => *c,
                    WriteVal::MyToken => s.pid.token(),
                };
                Action::Write(*reg, v)
            }
            Some(Op::Delay) => Action::Delay(Ticks(1)),
        }
    }

    fn apply(&self, s: &mut CorpusState, observed: Option<u64>, obs: &mut Vec<Obs>) {
        let op = self.ops[s.pc];
        let completed = s.pc;
        match op {
            Op::Read { skip, .. } => {
                let v = observed.expect("read observes a value");
                s.last = v;
                s.pc += if v != 0 { skip } else { 1 };
            }
            Op::Write { .. } | Op::Delay => s.pc += 1,
        }
        for e in self.emissions_at(completed) {
            match e {
                Emission::Decide(d) => {
                    let v = match d {
                        DecideVal::Const(c) => c,
                        DecideVal::LastParity => s.last & 1,
                        DecideVal::MineFlag => u64::from(s.last == s.pid.token()),
                    };
                    obs.push(Obs::Decided(v));
                }
                Emission::Enter => obs.push(Obs::EnterCritical),
                Emission::Exit => obs.push(Obs::ExitCritical),
            }
        }
    }
}

impl Symmetric for CorpusAutomaton {
    fn permute_state(&self, s: &CorpusState, perm: &Perm) -> CorpusState {
        CorpusState {
            pid: perm.apply_pid(s.pid),
            pc: s.pc,
            last: if self.tokens {
                self.permute_token_value(s.last, perm)
            } else {
                s.last
            },
        }
    }

    fn permute_value(&self, _reg: RegId, value: u64, perm: &Perm) -> u64 {
        if self.tokens {
            self.permute_token_value(value, perm)
        } else {
            value
        }
    }
}

/// One differential test case: the automaton, the process count, and the
/// safety spec to check it against.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// The generated automaton.
    pub automaton: CorpusAutomaton,
    /// Number of processes to run.
    pub n: usize,
    /// The property matching the attached emissions.
    pub spec: SafetySpec,
    /// The generating seed, for failure reports.
    pub seed: u64,
}

/// Generates the corpus case for `seed`. Deterministic; distinct seeds
/// cover consensus- and mutex-shaped programs in both value flavors.
pub fn generate(seed: u64) -> CorpusCase {
    let mut rng = SplitMix64::new(seed);
    let mut below = |bound: u64| rng.next_u64() % bound;
    let n = 2 + below(2) as usize; // 2 or 3 processes
    let tokens = below(2) == 0;
    let mutex_mode = below(2) == 0;
    let len = 3 + below(4) as usize; // 3..=6 ops
    let regs = 1 + below(3); // 1..=3 registers

    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let reg = RegId(below(regs));
        ops.push(match below(5) {
            0 | 1 => Op::Read {
                reg,
                skip: 1 + below(2) as usize,
            },
            2 | 3 => Op::Write {
                reg,
                val: if tokens {
                    WriteVal::MyToken
                } else {
                    WriteVal::Const(1 + below(2))
                },
            },
            _ => Op::Delay,
        });
    }

    let mut emissions = Vec::new();
    let spec = if mutex_mode {
        // Enter somewhere in the first half, exit strictly later: the
        // random "entry protocol" before the enter point is usually racy
        // enough to overlap — which is the point.
        let enter = below(len as u64) as usize;
        let exit = enter + 1 + below((len - enter) as u64) as usize;
        emissions.push((enter, Emission::Enter));
        emissions.push((exit.min(len - 1).max(enter), Emission::Exit));
        SafetySpec::mutex()
    } else {
        let decide = if tokens {
            DecideVal::MineFlag
        } else if below(3) == 0 {
            DecideVal::Const(below(2))
        } else {
            DecideVal::LastParity
        };
        emissions.push((below(len as u64) as usize, Emission::Decide(decide)));
        SafetySpec {
            agreement: true,
            ..SafetySpec::default()
        }
    };

    CorpusCase {
        automaton: CorpusAutomaton {
            ops,
            emissions,
            tokens,
            n,
        },
        n,
        spec,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetry::{permute_global, SymCanon};
    use crate::Global;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..32 {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.automaton.ops, b.automaton.ops);
            assert_eq!(a.automaton.emissions, b.automaton.emissions);
            assert_eq!(a.n, b.n);
        }
    }

    #[test]
    fn programs_are_acyclic() {
        // pc strictly increases on every op, so a run of one process is
        // bounded by the program length.
        for seed in 0..64 {
            let case = generate(seed);
            for op in &case.automaton.ops {
                if let Op::Read { skip, .. } = op {
                    assert!(*skip >= 1);
                }
            }
        }
    }

    #[test]
    fn corpus_automata_are_equivariant() {
        // Brute-check the Symmetric contract on sampled executions: for
        // every group permutation, stepping then permuting equals
        // permuting then stepping (with the permuted process).
        for seed in 0..48 {
            let case = generate(seed);
            let a = &case.automaton;
            let group = Perm::all(case.n);
            let mut rng = SplitMix64::new(seed ^ 0xD1F);
            let mut g = Global::initial(a, case.n);
            let mut obs = Vec::new();
            for _ in 0..12 {
                let live = g.enabled(a);
                if live.is_empty() {
                    break;
                }
                let p = live[rng.index(live.len())];
                for perm in &group {
                    let mut permuted_then_step = permute_global(a, &g, perm);
                    let mut step_then_permute = g.clone();
                    let spec = SafetySpec::default();
                    step_then_permute.step(a, p, &spec, &mut obs);
                    let expect = permute_global(a, &step_then_permute, perm);
                    permuted_then_step.step(a, perm.apply(p), &spec, &mut obs);
                    assert_eq!(
                        permuted_then_step, expect,
                        "equivariance broken: seed {seed}, perm {perm:?}"
                    );
                }
                g.step(a, p, &SafetySpec::default(), &mut obs);
            }
        }
    }

    #[test]
    #[ignore]
    fn debug_seed() {
        use crate::{DporExplorer, Explorer};
        let seed: u64 = std::env::var("SEED").unwrap().parse().unwrap();
        let case = generate(seed);
        let a = &case.automaton;
        println!("case: {case:?}");
        let naive = Explorer::new(a, case.n).check(&case.spec);
        println!(
            "naive: states {} transitions {} violation {:?}",
            naive.states_explored,
            naive.transitions,
            naive
                .violation
                .as_ref()
                .map(|c| (&c.violation, &c.schedule))
        );
        let dpor = DporExplorer::new(a, case.n).check(&case.spec);
        println!(
            "dpor: states {} transitions {} violation {:?}",
            dpor.states_explored,
            dpor.transitions,
            dpor.violation.as_ref().map(|c| (&c.violation, &c.schedule))
        );
    }

    #[test]
    fn differential_verdicts_across_explorers() {
        // The in-crate smoke version of the root differential suite:
        // every explorer agrees with the naive oracle on violation
        // presence, and every reported counterexample replays to its own
        // violation.
        use crate::{replay_schedule, DporExplorer, Explorer};
        for seed in 0..200 {
            let case = generate(seed);
            let a = &case.automaton;
            let naive = Explorer::new(a, case.n).check(&case.spec);
            assert!(naive.exhausted(), "corpus is acyclic: seed {seed}");
            let reports = [
                ("dpor", DporExplorer::new(a, case.n).check(&case.spec)),
                (
                    "dpor+sym",
                    DporExplorer::new(a, case.n).check_symmetric(&case.spec),
                ),
                (
                    "naive+sym",
                    Explorer::new(a, case.n).check_symmetric(&case.spec),
                ),
            ];
            for (name, r) in reports {
                assert!(r.exhausted(), "{name} truncated: seed {seed}");
                assert_eq!(
                    naive.violation.is_some(),
                    r.violation.is_some(),
                    "verdict mismatch ({name}): seed {seed}"
                );
                if let Some(cex) = &r.violation {
                    assert_eq!(
                        replay_schedule(a, case.n, &case.spec, &cex.schedule),
                        Some(cex.violation.clone()),
                        "{name} schedule must replay: seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn stabilizer_is_the_full_group() {
        // Identical programs and pid-free initial registers: every
        // permutation fixes the initial configuration.
        for seed in 0..16 {
            let case = generate(seed);
            let g = SymCanon::stabilizer(&case.automaton, case.n);
            let expected = (1..=case.n).product::<usize>();
            assert_eq!(g.order(), expected, "seed {seed}");
        }
    }
}
