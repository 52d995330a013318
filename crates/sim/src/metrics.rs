//! Metrics extracted from simulation runs: consensus decision statistics
//! and the paper's mutual exclusion time-complexity measure.
//!
//! §3 of the paper defines mutex time complexity as *"the longest time
//! interval where some process is in its entry code while no process is in
//! its critical section"*. [`mutex_stats`] computes exactly that from the
//! run's event stream, together with entry waits and a mutual exclusion
//! safety check; [`consensus_stats`] extracts decisions, agreement and
//! round usage.

use crate::driver::RunResult;
use tfr_registers::spec::Obs;
use tfr_registers::{ProcId, Ticks};

/// Summary of a consensus run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsensusStats {
    /// `(pid, instant, value)` per decision, in decision order.
    pub decisions: Vec<(ProcId, Ticks, u64)>,
    /// Whether all decided values are equal (vacuously true if no one
    /// decided).
    pub agreement: bool,
    /// The common decided value, if any process decided and agreement
    /// holds.
    pub decided_value: Option<u64>,
    /// Instant of the last decision, if every non-crashed process decided.
    pub all_decided_by: Option<Ticks>,
    /// Highest round any process started (0 if rounds are not reported).
    pub max_round: u64,
}

/// Extracts consensus statistics from a run.
pub fn consensus_stats(result: &RunResult) -> ConsensusStats {
    let decisions = result.decisions();
    let agreement = decisions.windows(2).all(|w| w[0].2 == w[1].2);
    let decided_value = if agreement {
        decisions.first().map(|d| d.2)
    } else {
        None
    };
    let max_round = result
        .events(|o| match o {
            Obs::StartedRound(r) => Some(*r),
            _ => None,
        })
        .map(|(_, _, r)| r)
        .max()
        .unwrap_or(0);
    ConsensusStats {
        agreement,
        decided_value,
        all_decided_by: result.last_decision_time(),
        max_round,
        decisions,
    }
}

impl ConsensusStats {
    /// The paper's validity condition (Theorem 2.2): every decided value is
    /// some process's input.
    pub fn valid_against(&self, inputs: &[u64]) -> bool {
        self.decisions.iter().all(|(_, _, v)| inputs.contains(v))
    }
}

/// Summary of a mutual exclusion run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutexStats {
    /// Total critical-section entries observed (within the measurement
    /// window).
    pub cs_entries: u64,
    /// Critical-section entries per process.
    pub entries_per_proc: Vec<u64>,
    /// Longest wait from `EnterTrying` to the matching `EnterCritical`.
    pub max_entry_wait: Ticks,
    /// The paper's §3 time-complexity metric: the longest interval during
    /// which some process was in its entry code while no process was in its
    /// critical section.
    pub longest_starved_interval: Ticks,
    /// Whether two processes were ever in the critical section at once —
    /// the mutual exclusion safety violation (Fischer under timing
    /// failures, E6).
    pub mutual_exclusion_violated: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Remainder,
    Trying,
    Critical,
    Exiting,
}

/// Computes mutual exclusion statistics over the events at or after `from`
/// (pass [`Ticks::ZERO`] for the whole run).
///
/// Intervals and waits straddling `from` are clipped to start at `from` —
/// this is how convergence (E7) is measured: inject a failure burst, then
/// evaluate the metric only after the burst ends.
///
/// The mutual exclusion check runs over the **whole** run regardless of
/// `from`: safety is unconditional.
pub fn mutex_stats(result: &RunResult, from: Ticks) -> MutexStats {
    let n = result.n;
    let mut phase = vec![Phase::Remainder; n];
    let mut trying_since = vec![Ticks::ZERO; n];
    let mut entries = vec![0u64; n];
    let mut max_entry_wait = Ticks::ZERO;
    let mut in_cs = 0usize;
    let mut trying = 0usize;
    let mut violated = false;

    // Tracking of the paper's metric: the current "starved" interval
    // (someone trying, nobody in CS).
    let mut starved_since: Option<Ticks> = None;
    let mut longest_starved = Ticks::ZERO;

    let close_starved = |since: &mut Option<Ticks>, now: Ticks, longest: &mut Ticks| {
        if let Some(start) = since.take() {
            let start = Ticks(start.0.max(from.0));
            if now > start {
                *longest = Ticks(longest.0.max((now - start).0));
            }
        }
    };

    for e in &result.obs {
        let p = e.pid.0;
        debug_assert!(p < n, "event from unknown process");
        match e.obs {
            Obs::EnterTrying if phase[p] == Phase::Remainder => {
                phase[p] = Phase::Trying;
                trying += 1;
                trying_since[p] = e.time;
                if in_cs == 0 && starved_since.is_none() {
                    starved_since = Some(e.time);
                }
            }
            Obs::EnterCritical => {
                if phase[p] == Phase::Trying {
                    trying -= 1;
                }
                if in_cs > 0 {
                    violated = true;
                }
                phase[p] = Phase::Critical;
                in_cs += 1;
                close_starved(&mut starved_since, e.time, &mut longest_starved);
                if e.time >= from {
                    entries[p] += 1;
                    let wait_from = Ticks(trying_since[p].0.max(from.0));
                    if e.time > wait_from {
                        max_entry_wait = Ticks(max_entry_wait.0.max((e.time - wait_from).0));
                    }
                }
            }
            Obs::ExitCritical if phase[p] == Phase::Critical => {
                phase[p] = Phase::Exiting;
                in_cs -= 1;
                if in_cs == 0 && trying > 0 && starved_since.is_none() {
                    starved_since = Some(e.time);
                }
            }
            Obs::EnterRemainder if (phase[p] == Phase::Exiting || phase[p] == Phase::Trying) => {
                if phase[p] == Phase::Trying {
                    trying -= 1;
                    if trying == 0 && in_cs == 0 {
                        close_starved(&mut starved_since, e.time, &mut longest_starved);
                    }
                }
                phase[p] = Phase::Remainder;
            }
            _ => {}
        }
    }
    // A starved interval still open at the end of the run counts up to the
    // last linearized instant.
    close_starved(&mut starved_since, result.end_time, &mut longest_starved);

    MutexStats {
        cs_entries: entries.iter().sum(),
        entries_per_proc: entries,
        max_entry_wait,
        longest_starved_interval: longest_starved,
        mutual_exclusion_violated: violated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{RunResult, TimedObs};
    use tfr_registers::bank::ArrayBank;
    use tfr_registers::Delta;

    fn run_with(n: usize, obs: Vec<(u64, usize, Obs)>, end: u64) -> RunResult {
        RunResult {
            n,
            delta: Delta::from_ticks(100),
            obs: obs
                .into_iter()
                .map(|(t, p, o)| TimedObs {
                    time: Ticks(t),
                    pid: ProcId(p),
                    obs: o,
                })
                .collect(),
            trace: vec![],
            steps: 0,
            end_time: Ticks(end),
            halted: vec![true; n],
            crashed: vec![false; n],
            timing_failures: 0,
            timed_out: false,
            final_bank: ArrayBank::new(),
        }
    }

    #[test]
    fn consensus_stats_agreement_and_validity() {
        let r = run_with(
            2,
            vec![
                (5, 0, Obs::StartedRound(1)),
                (10, 0, Obs::Decided(1)),
                (20, 1, Obs::Decided(1)),
            ],
            20,
        );
        let s = consensus_stats(&r);
        assert!(s.agreement);
        assert_eq!(s.decided_value, Some(1));
        assert_eq!(s.all_decided_by, Some(Ticks(20)));
        assert_eq!(s.max_round, 1);
        assert!(s.valid_against(&[0, 1]));
        assert!(!s.valid_against(&[0]));
    }

    #[test]
    fn consensus_stats_detects_disagreement() {
        let r = run_with(
            2,
            vec![(10, 0, Obs::Decided(0)), (20, 1, Obs::Decided(1))],
            20,
        );
        let s = consensus_stats(&r);
        assert!(!s.agreement);
        assert_eq!(s.decided_value, None);
    }

    #[test]
    fn consensus_stats_incomplete_decisions() {
        let r = run_with(2, vec![(10, 0, Obs::Decided(1))], 20);
        let s = consensus_stats(&r);
        assert!(s.agreement, "vacuous over the single decision");
        assert_eq!(s.all_decided_by, None, "p1 never decided");
    }

    #[test]
    fn mutex_metric_simple_interval() {
        // p0 tries at 10, enters at 60: starved interval of 50.
        let r = run_with(
            1,
            vec![
                (10, 0, Obs::EnterTrying),
                (60, 0, Obs::EnterCritical),
                (70, 0, Obs::ExitCritical),
                (75, 0, Obs::EnterRemainder),
            ],
            80,
        );
        let s = mutex_stats(&r, Ticks::ZERO);
        assert_eq!(s.longest_starved_interval, Ticks(50));
        assert_eq!(s.max_entry_wait, Ticks(50));
        assert_eq!(s.cs_entries, 1);
        assert!(!s.mutual_exclusion_violated);
    }

    #[test]
    fn mutex_metric_not_starved_while_cs_occupied() {
        // p1 waits while p0 is in CS — that waiting is NOT starved time;
        // only the 5 ticks between p0's exit and p1's entry count.
        let r = run_with(
            2,
            vec![
                (0, 0, Obs::EnterTrying),
                (5, 0, Obs::EnterCritical),
                (10, 1, Obs::EnterTrying),
                (100, 0, Obs::ExitCritical),
                (101, 0, Obs::EnterRemainder),
                (105, 1, Obs::EnterCritical),
                (110, 1, Obs::ExitCritical),
                (111, 1, Obs::EnterRemainder),
            ],
            120,
        );
        let s = mutex_stats(&r, Ticks::ZERO);
        assert_eq!(s.longest_starved_interval, Ticks(5));
        assert_eq!(s.max_entry_wait, Ticks(95), "p1 waited 10→105");
        assert_eq!(s.cs_entries, 2);
    }

    #[test]
    fn mutex_violation_detected() {
        let r = run_with(
            2,
            vec![
                (0, 0, Obs::EnterTrying),
                (1, 1, Obs::EnterTrying),
                (5, 0, Obs::EnterCritical),
                (6, 1, Obs::EnterCritical),
            ],
            10,
        );
        assert!(mutex_stats(&r, Ticks::ZERO).mutual_exclusion_violated);
    }

    #[test]
    fn mutex_metric_window_clips() {
        // Starved 10→60, but measuring from 40 clips it to 20.
        let r = run_with(
            1,
            vec![(10, 0, Obs::EnterTrying), (60, 0, Obs::EnterCritical)],
            70,
        );
        let s = mutex_stats(&r, Ticks(40));
        assert_eq!(s.longest_starved_interval, Ticks(20));
        assert_eq!(s.max_entry_wait, Ticks(20));
    }

    #[test]
    fn mutex_open_interval_counts_to_end() {
        let r = run_with(1, vec![(10, 0, Obs::EnterTrying)], 100);
        let s = mutex_stats(&r, Ticks::ZERO);
        assert_eq!(s.longest_starved_interval, Ticks(90));
        assert_eq!(s.cs_entries, 0);
    }
}

/// Busy-waiting profile of a run, computed from the full action trace
/// (requires [`crate::RunConfig::record_trace`]).
///
/// A *poll* is a read of a register the process already read among its
/// last few reads with no intervening write — the signature of an `await`
/// loop, including multi-register ones (Peterson re-reads `want`/`turn`
/// alternately) and delay-then-recheck ones (Fischer). §4 of the paper
/// points at local-spinning variants as future work; this metric
/// quantifies how much each algorithm spins, the cost such variants would
/// attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpinStats {
    /// Total shared-memory accesses in the trace.
    pub shared_accesses: u64,
    /// Total polls (repeat-reads) across all processes.
    pub polls: u64,
    /// Polls per process.
    pub polls_per_proc: Vec<u64>,
    /// The longest single polling streak (consecutive repeat-reads of one
    /// register by one process).
    pub longest_streak: u64,
}

impl SpinStats {
    /// Fraction of shared accesses that were polls.
    pub fn poll_fraction(&self) -> f64 {
        if self.shared_accesses == 0 {
            0.0
        } else {
            self.polls as f64 / self.shared_accesses as f64
        }
    }
}

/// Computes the busy-waiting profile from a traced run.
///
/// # Panics
///
/// Panics if the run was executed without `record_trace` (the trace is
/// required, and silently returning zeros would be misleading).
pub fn spin_stats(result: &RunResult) -> SpinStats {
    assert!(
        result.trace.len() as u64 >= result.steps.min(1),
        "spin_stats requires a run recorded with RunConfig::record_trace"
    );
    use tfr_registers::spec::Action;
    /// How far back a repeat-read still counts as the same await loop
    /// (covers Peterson's two-register spin with room to spare).
    const WINDOW: usize = 4;
    let n = result.n;
    let mut recent: Vec<Vec<tfr_registers::RegId>> = vec![Vec::new(); n];
    let mut streak: Vec<u64> = vec![0; n];
    let mut polls = vec![0u64; n];
    let mut shared = 0u64;
    let mut longest = 0u64;
    for step in &result.trace {
        let p = step.pid.0;
        match step.action {
            Action::Read(r) => {
                shared += 1;
                if recent[p].contains(&r) {
                    polls[p] += 1;
                    streak[p] += 1;
                    longest = longest.max(streak[p]);
                } else {
                    streak[p] = 0;
                }
                recent[p].push(r);
                if recent[p].len() > WINDOW {
                    recent[p].remove(0);
                }
            }
            Action::Write(_, _) => {
                shared += 1;
                recent[p].clear();
                streak[p] = 0;
            }
            _ => {
                // Delays do not break an await loop: Fischer-style
                // "delay then re-check" still counts as waiting on the
                // same register.
            }
        }
    }
    SpinStats {
        shared_accesses: shared,
        polls: polls.iter().sum(),
        polls_per_proc: polls,
        longest_streak: longest,
    }
}

/// The earliest instant `t ≥ from` such that the paper's mutex
/// time-complexity metric, evaluated on the suffix `[t, end]`, is at most
/// `target` — i.e. the measured **convergence point** after a failure
/// burst (§1.3's convergence requirement, experiment E7).
///
/// Returns `None` if no suffix meets the target. Candidate instants are
/// the run's event times (the metric only changes there), so the scan is
/// exact. O(E²) in the number of events; fine for experiment-sized runs.
pub fn convergence_point(result: &RunResult, from: Ticks, target: Ticks) -> Option<Ticks> {
    let mut candidates: Vec<Ticks> = std::iter::once(from)
        .chain(result.obs.iter().map(|e| e.time).filter(|t| *t >= from))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    candidates
        .into_iter()
        .find(|&t| mutex_stats(result, t).longest_starved_interval <= target)
}

#[cfg(test)]
mod spin_tests {
    use super::*;
    use crate::driver::{RunResult, TimedObs, TraceStep};
    use tfr_registers::bank::ArrayBank;
    use tfr_registers::spec::Action;
    use tfr_registers::{Delta, ProcId, RegId};

    fn traced(n: usize, steps: Vec<(u64, usize, Action)>) -> RunResult {
        RunResult {
            n,
            delta: Delta::from_ticks(100),
            obs: vec![],
            trace: steps
                .into_iter()
                .map(|(t, p, a)| TraceStep {
                    issued: Ticks(t.saturating_sub(1)),
                    completed: Ticks(t),
                    pid: ProcId(p),
                    action: a,
                })
                .collect(),
            steps: 1,
            end_time: Ticks(100),
            halted: vec![true; n],
            crashed: vec![false; n],
            timing_failures: 0,
            timed_out: false,
            final_bank: ArrayBank::new(),
        }
    }

    #[test]
    fn repeat_reads_count_as_polls() {
        let r = traced(
            1,
            vec![
                (1, 0, Action::Read(RegId(0))),
                (2, 0, Action::Read(RegId(0))),
                (3, 0, Action::Read(RegId(0))),
                (4, 0, Action::Read(RegId(1))),
                (5, 0, Action::Write(RegId(0), 1)),
                (6, 0, Action::Read(RegId(0))),
            ],
        );
        let s = spin_stats(&r);
        assert_eq!(s.shared_accesses, 6);
        assert_eq!(
            s.polls, 2,
            "two repeats of r0; r1 and post-write r0 are fresh"
        );
        assert_eq!(s.longest_streak, 2);
        assert!((s.poll_fraction() - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn polls_tracked_per_process_independently() {
        let r = traced(
            2,
            vec![
                (1, 0, Action::Read(RegId(0))),
                (2, 1, Action::Read(RegId(0))),
                (3, 0, Action::Read(RegId(0))),
                (4, 1, Action::Read(RegId(0))),
            ],
        );
        let s = spin_stats(&r);
        assert_eq!(
            s.polls_per_proc,
            vec![1, 1],
            "interleaving does not hide per-proc repeats"
        );
    }

    #[test]
    fn delays_do_not_reset_an_await() {
        let r = traced(
            1,
            vec![
                (1, 0, Action::Read(RegId(0))),
                (2, 0, Action::Delay(Ticks(10))),
                (3, 0, Action::Read(RegId(0))),
            ],
        );
        let s = spin_stats(&r);
        assert_eq!(
            s.polls, 1,
            "Fischer-style delay-then-recheck is still a poll"
        );
    }

    #[test]
    fn convergence_point_finds_the_calm_suffix() {
        use tfr_registers::spec::Obs;
        // One long starved interval (10..200), then short ones.
        let mk = |t: u64, p: usize, o: Obs| TimedObs {
            time: Ticks(t),
            pid: ProcId(p),
            obs: o,
        };
        let r = RunResult {
            n: 2,
            delta: Delta::from_ticks(100),
            obs: vec![
                mk(10, 0, Obs::EnterTrying),
                mk(200, 0, Obs::EnterCritical),
                mk(210, 0, Obs::ExitCritical),
                mk(215, 0, Obs::EnterRemainder),
                mk(220, 1, Obs::EnterTrying),
                mk(240, 1, Obs::EnterCritical),
                mk(250, 1, Obs::ExitCritical),
                mk(255, 1, Obs::EnterRemainder),
            ],
            trace: vec![],
            steps: 0,
            end_time: Ticks(260),
            halted: vec![true; 2],
            crashed: vec![false; 2],
            timing_failures: 0,
            timed_out: false,
            final_bank: ArrayBank::new(),
        };
        // Target 50t: the 190t interval disqualifies any start ≤ 10... the
        // suffix metric counts only interval portions ≥ the start, so the
        // first qualifying start clips the long interval to ≤ 50.
        let p = convergence_point(&r, Ticks::ZERO, Ticks(50)).expect("converges");
        assert!(
            p >= Ticks(150),
            "starts before 150 still see > 50t of starvation, got {p}"
        );
        assert!(
            p <= Ticks(220),
            "by 220 only the 20t interval remains, got {p}"
        );
        // An impossible target: a waiter that never enters keeps every
        // suffix starved through the end of the run.
        let mut starved_tail = r.clone();
        starved_tail.obs.push(mk(256, 0, Obs::EnterTrying));
        starved_tail.end_time = Ticks(300);
        assert_eq!(
            convergence_point(&starved_tail, Ticks::ZERO, Ticks(0)),
            None
        );
    }
}
