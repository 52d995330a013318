//! Synthetic workloads for driving the simulator at 10^5–10^6 processes.
//!
//! The paper's algorithm specs (consensus, ME) are what the simulator
//! exists for, but they intentionally contend on a handful of registers —
//! useless for measuring *engine* throughput or for shard-parallel runs.
//! These automatons scale instead:
//!
//! * [`ScaleLoop`] — each process works a private register plus a
//!   neighbor's register *within its own group*, so the groups'
//!   registers are disjoint. Data flows through the registers (each
//!   write mixes the values read), so any engine mis-ordering corrupts
//!   the final bank and is caught by the differential tests.
//! * [`DelayOnly`] — pure `delay` traffic with per-(pid, step)
//!   pseudorandom durations and no shared accesses at all: the events/sec
//!   benchmark (E25), where scheduler cost is the whole story.

use tfr_registers::spec::{Action, Automaton, Obs};
use tfr_registers::{ProcId, RegId, Ticks};

/// SplitMix64 finalizer: a stateless 64-bit mixer, used to derive
/// deterministic per-(pid, round) delay jitter without any RNG state.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The upper end of [`ScaleLoop`]'s delay jitter, in ticks.
const DELAY_SPREAD: u64 = 64;

/// A register-disjoint-by-construction scale workload.
///
/// Process `p` owns register `base + p`. Each round it: reads its own
/// register, writes back a mix of everything observed so far, reads the
/// next process *in its group* (groups are `group`-sized contiguous pid
/// ranges), then delays a pseudorandom `1..=DELAY_SPREAD` ticks. After
/// `rounds` rounds it emits one `Note("scale-done", acc)` and halts.
///
/// Footprint: pids `0..k` running this automaton touch exactly registers
/// `base..base+k`, provided `group` divides `k` (the neighbor read wraps
/// within the group, never across it).
#[derive(Debug, Clone)]
pub struct ScaleLoop {
    rounds: u32,
    group: usize,
    base: u64,
    salt: u64,
}

impl ScaleLoop {
    /// `rounds` rounds per process, neighbor reads confined to
    /// `group`-sized pid groups, registers starting at `base`.
    pub fn new(rounds: u32, group: usize, base: u64) -> ScaleLoop {
        assert!(group > 0, "group size must be positive");
        ScaleLoop {
            rounds,
            group,
            base,
            salt: 0,
        }
    }

    /// Salts the per-(pid, round) jitter so different seeds explore
    /// different interleavings.
    pub fn salt(mut self, salt: u64) -> ScaleLoop {
        self.salt = salt;
        self
    }

    fn own_reg(&self, pid: u32) -> RegId {
        RegId(self.base + pid as u64)
    }

    fn neighbor_reg(&self, pid: u32) -> RegId {
        let p = pid as usize;
        let group_start = p - (p % self.group);
        let neighbor = group_start + (p - group_start + 1) % self.group;
        RegId(self.base + neighbor as u64)
    }

    fn jitter(&self, pid: u32, round: u32, phase: u8) -> Ticks {
        let h = mix(self.salt ^ ((pid as u64) << 32) ^ ((round as u64) << 8) ^ phase as u64);
        Ticks(1 + h % DELAY_SPREAD)
    }
}

/// Per-process state of [`ScaleLoop`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScaleState {
    /// This process's id (fixes its register addresses).
    pub pid: u32,
    /// Completed rounds.
    pub round: u32,
    /// Position within the round: 0 read-own, 1 write-own, 2
    /// read-neighbor, 3 delay.
    pub phase: u8,
    /// Running mix of every value observed — data-dependence that makes
    /// mis-orderings visible in the final bank.
    pub acc: u64,
}

impl Automaton for ScaleLoop {
    type State = ScaleState;

    fn init(&self, pid: ProcId) -> ScaleState {
        ScaleState {
            pid: pid.0 as u32,
            round: 0,
            phase: 0,
            acc: mix(pid.0 as u64 ^ self.salt),
        }
    }

    fn next_action(&self, s: &ScaleState) -> Action {
        if s.round >= self.rounds {
            return Action::Halt;
        }
        match s.phase {
            0 => Action::Read(self.own_reg(s.pid)),
            1 => Action::Write(self.own_reg(s.pid), s.acc | 1),
            2 => Action::Read(self.neighbor_reg(s.pid)),
            _ => Action::Delay(self.jitter(s.pid, s.round, 3)),
        }
    }

    fn apply(&self, s: &mut ScaleState, observed: Option<u64>, obs: &mut Vec<Obs>) {
        match s.phase {
            0 | 2 => {
                s.acc = s
                    .acc
                    .rotate_left(7)
                    .wrapping_add(mix(observed.expect("read observes a value")));
                s.phase += 1;
            }
            1 => s.phase += 1,
            _ => {
                s.phase = 0;
                s.round += 1;
                if s.round >= self.rounds {
                    obs.push(Obs::Note("scale-done", s.acc));
                }
            }
        }
    }
}

/// Pure-scheduler workload: `rounds` delays per process with
/// pseudorandom durations in `lo..=hi`, no shared accesses, no obs.
///
/// Under `Fixed(Ticks(1))` (or any model — `Delay` never completes early)
/// a run linearizes exactly `n · rounds` events whose instants scatter
/// across every wheel level, which is precisely what the events/sec bench
/// wants to measure.
#[derive(Debug, Clone)]
pub struct DelayOnly {
    rounds: u32,
    lo: u64,
    hi: u64,
    salt: u64,
}

impl DelayOnly {
    /// `rounds` delays per process, each lasting `lo..=hi` ticks.
    pub fn new(rounds: u32, lo: u64, hi: u64) -> DelayOnly {
        assert!(lo > 0 && lo <= hi, "need 0 < lo <= hi");
        DelayOnly {
            rounds,
            lo,
            hi,
            salt: 0,
        }
    }

    /// Salts the duration stream.
    pub fn salt(mut self, salt: u64) -> DelayOnly {
        self.salt = salt;
        self
    }
}

/// Per-process state of [`DelayOnly`]: `(pid, rounds left)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DelayState {
    /// This process's id (seeds its duration stream).
    pub pid: u32,
    /// Delays still to perform.
    pub left: u32,
}

impl Automaton for DelayOnly {
    type State = DelayState;

    fn init(&self, pid: ProcId) -> DelayState {
        DelayState {
            pid: pid.0 as u32,
            left: self.rounds,
        }
    }

    fn next_action(&self, s: &DelayState) -> Action {
        if s.left == 0 {
            return Action::Halt;
        }
        let h = mix(self.salt ^ ((s.pid as u64) << 32) ^ s.left as u64);
        Action::Delay(Ticks(self.lo + h % (self.hi - self.lo + 1)))
    }

    fn apply(&self, s: &mut DelayState, _observed: Option<u64>, _obs: &mut Vec<Obs>) {
        s.left -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::HeapScheduler;
    use crate::timing::Fixed;
    use crate::{RunConfig, Sim};
    use tfr_registers::bank::RegisterBank;
    use tfr_registers::Delta;

    #[test]
    fn scale_loop_touches_only_its_region() {
        let n = 24;
        let base = 1000;
        let config = RunConfig::new(n, Delta::from_ticks(100)).record_trace();
        let result = Sim::new(ScaleLoop::new(3, 8, base), config, Fixed::new(Ticks(5))).run();
        assert!(result.all_halted());
        for step in &result.trace {
            if let Some(reg) = match step.action {
                tfr_registers::spec::Action::Read(r) => Some(r.0),
                tfr_registers::spec::Action::Write(r, _) => Some(r.0),
                _ => None,
            } {
                assert!(
                    (base..base + n as u64).contains(&reg),
                    "register {reg} outside the region"
                );
            }
        }
        // Every process wrote its own register at least once.
        for p in 0..n as u64 {
            assert_ne!(result.final_bank.read(RegId(base + p)), 0);
        }
    }

    #[test]
    fn scale_loop_neighbor_wraps_within_group() {
        let w = ScaleLoop::new(1, 4, 0);
        assert_eq!(w.neighbor_reg(0), RegId(1));
        assert_eq!(w.neighbor_reg(3), RegId(0), "wraps to group start");
        assert_eq!(w.neighbor_reg(4), RegId(5), "next group is independent");
        assert_eq!(w.neighbor_reg(7), RegId(4));
    }

    #[test]
    fn delay_only_linearizes_exactly_n_times_rounds() {
        let n = 100;
        let rounds = 7;
        let config = RunConfig::new(n, Delta::from_ticks(100)).max_time(Ticks::NEVER);
        let result = Sim::new(
            DelayOnly::new(rounds, 1, 1000),
            config,
            Fixed::new(Ticks(1)),
        )
        .run();
        assert!(result.all_halted());
        assert!(!result.timed_out);
        assert_eq!(result.steps, n as u64 * rounds as u64);
        assert_eq!(result.timing_failures, 0, "delays are not shared accesses");
    }

    /// The two workloads are deterministic across schedulers (the quick
    /// inline version of the differential battery).
    #[test]
    fn workloads_are_scheduler_independent() {
        let d = Delta::from_ticks(50);
        for salt in [1u64, 99] {
            let sim = || {
                Sim::new(
                    ScaleLoop::new(4, 8, 0).salt(salt),
                    RunConfig::new(32, d).record_trace(),
                    crate::timing::standard_no_failures(d, salt),
                )
            };
            assert_eq!(
                sim().run(),
                sim().run_on(HeapScheduler::new()),
                "salt {salt}"
            );
        }
    }
}
