//! Timing models: who takes how long, when timing failures strike, and who
//! crashes.
//!
//! A [`TimingModel`] is consulted once per issued action and returns its
//! [`Fate`]: a duration, or a crash. Durations of shared-memory accesses
//! longer than Δ *are* the paper's timing failures — there is no separate
//! failure switch. Models compose: wrap a base model in a
//! [`FailureWindows`] to inject failure bursts, in a [`CrashSchedule`] to
//! crash processes, or script everything step-by-step with [`Scripted`] for
//! adversarial constructions (the Fischer violation of E6, the starvation
//! schedule of E8).

use std::collections::HashMap;
use tfr_registers::rng::SplitMix64;
use tfr_registers::spec::Action;
use tfr_registers::{Delta, ProcId, Ticks};

/// Context handed to the timing model for each issued action.
#[derive(Debug, Clone, Copy)]
pub struct StepCtx {
    /// The process issuing the action.
    pub pid: ProcId,
    /// The action being issued.
    pub action: Action,
    /// The virtual instant at which the action is issued.
    pub now: Ticks,
    /// Global step counter (over all processes), starting at 0.
    pub global_step: u64,
    /// Per-process step counter, starting at 0.
    pub proc_step: u64,
}

/// The outcome the timing model assigns to an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The action completes after this duration. For a `Delay(d)` action
    /// the driver clamps the duration to at least `d` (a delay is never
    /// shorter than requested — §1.2).
    Take(Ticks),
    /// The process crashes: the action never completes and (for a write)
    /// never takes effect.
    Crash,
}

/// Assigns durations (and crashes) to actions.
pub trait TimingModel {
    /// The fate of the action described by `ctx`.
    fn fate(&mut self, ctx: StepCtx) -> Fate;
}

impl<M: TimingModel + ?Sized> TimingModel for Box<M> {
    fn fate(&mut self, ctx: StepCtx) -> Fate {
        (**self).fate(ctx)
    }
}

impl<M: TimingModel + ?Sized> TimingModel for &mut M {
    fn fate(&mut self, ctx: StepCtx) -> Fate {
        (**self).fate(ctx)
    }
}

/// Every shared-memory access takes exactly the same duration; delays take
/// exactly their requested length.
///
/// With `access ≤ Δ` this is the failure-free synchronous-ish world in
/// which the paper's efficiency claims (15·Δ consensus, O(Δ) mutex) are
/// stated.
#[derive(Debug, Clone, Copy)]
pub struct Fixed {
    access: Ticks,
}

impl Fixed {
    /// Every shared-memory access takes `access` ticks.
    pub fn new(access: Ticks) -> Fixed {
        Fixed { access }
    }
}

impl TimingModel for Fixed {
    fn fate(&mut self, ctx: StepCtx) -> Fate {
        match ctx.action {
            Action::Delay(d) => Fate::Take(d),
            _ => Fate::Take(self.access),
        }
    }
}

/// Shared-memory accesses take a uniformly random duration in
/// `[lo, hi]`; delays take exactly their requested length.
///
/// With `hi ≤ Δ` the timing constraints are always met; with `hi > Δ`
/// sporadic timing failures occur naturally.
#[derive(Debug, Clone)]
pub struct UniformAccess {
    lo: u64,
    hi: u64,
    rng: SplitMix64,
}

impl UniformAccess {
    /// Durations uniform in `[lo, hi]` ticks, seeded for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `lo == 0` or `lo > hi`.
    pub fn new(lo: Ticks, hi: Ticks, seed: u64) -> UniformAccess {
        assert!(lo.0 > 0, "access durations must be positive");
        assert!(lo <= hi, "lo must not exceed hi");
        UniformAccess {
            lo: lo.0,
            hi: hi.0,
            rng: SplitMix64::new(seed),
        }
    }
}

impl TimingModel for UniformAccess {
    fn fate(&mut self, ctx: StepCtx) -> Fate {
        match ctx.action {
            Action::Delay(d) => Fate::Take(d),
            _ => Fate::Take(Ticks(self.rng.random_range(self.lo..=self.hi))),
        }
    }
}

/// A heavy-tailed model of real machines: most accesses are fast
/// (uniform in `[lo, hi]`), but with probability `spike_prob` an access is
/// inflated by `spike_factor` — modelling preemption, page faults and
/// contention, the reasons §1.2 gives for the true Δ being enormous and
/// `optimistic(Δ)` being the practical choice.
#[derive(Debug, Clone)]
pub struct HeavyTail {
    lo: u64,
    hi: u64,
    spike_prob: f64,
    spike_factor: u64,
    rng: SplitMix64,
}

impl HeavyTail {
    /// See type docs.
    ///
    /// # Panics
    ///
    /// Panics if `lo == 0`, `lo > hi`, `spike_prob ∉ [0, 1]`, or
    /// `spike_factor == 0`.
    pub fn new(lo: Ticks, hi: Ticks, spike_prob: f64, spike_factor: u64, seed: u64) -> HeavyTail {
        assert!(lo.0 > 0 && lo <= hi, "invalid duration range");
        assert!(
            (0.0..=1.0).contains(&spike_prob),
            "spike_prob must be a probability"
        );
        assert!(spike_factor > 0, "spike_factor must be positive");
        HeavyTail {
            lo: lo.0,
            hi: hi.0,
            spike_prob,
            spike_factor,
            rng: SplitMix64::new(seed),
        }
    }
}

impl TimingModel for HeavyTail {
    fn fate(&mut self, ctx: StepCtx) -> Fate {
        match ctx.action {
            Action::Delay(d) => Fate::Take(d),
            _ => {
                let base = self.rng.random_range(self.lo..=self.hi);
                if self.rng.random_bool(self.spike_prob) {
                    Fate::Take(Ticks(base * self.spike_factor))
                } else {
                    Fate::Take(Ticks(base))
                }
            }
        }
    }
}

/// A window of virtual time during which selected processes suffer timing
/// failures: each of their shared-memory accesses issued inside the window
/// takes `inflated` ticks (choose `inflated > Δ`).
#[derive(Debug, Clone)]
pub struct Window {
    /// First instant (inclusive) of the failure window.
    pub from: Ticks,
    /// Last instant (inclusive) of the failure window.
    pub to: Ticks,
    /// Affected processes; `None` means all processes.
    pub pids: Option<Vec<ProcId>>,
    /// Duration given to affected accesses.
    pub inflated: Ticks,
}

impl Window {
    fn applies(&self, ctx: &StepCtx) -> bool {
        ctx.now >= self.from
            && ctx.now <= self.to
            && self.pids.as_ref().is_none_or(|ps| ps.contains(&ctx.pid))
    }
}

/// Injects transient timing-failure bursts on top of a base model.
///
/// Outside all windows the base model rules; inside a window, affected
/// shared-memory accesses take the window's inflated duration (delays are
/// also stretched — a preempted process resumes late from a delay too).
#[derive(Debug, Clone)]
pub struct FailureWindows<M> {
    base: M,
    windows: Vec<Window>,
}

impl<M: TimingModel> FailureWindows<M> {
    /// Wraps `base`, adding the given failure windows.
    pub fn new(base: M, windows: Vec<Window>) -> FailureWindows<M> {
        FailureWindows { base, windows }
    }
}

impl<M: TimingModel> TimingModel for FailureWindows<M> {
    fn fate(&mut self, ctx: StepCtx) -> Fate {
        for w in &self.windows {
            if w.applies(&ctx) {
                return match ctx.action {
                    Action::Delay(d) => Fate::Take(Ticks(d.0.max(w.inflated.0))),
                    _ => Fate::Take(w.inflated),
                };
            }
        }
        self.base.fate(ctx)
    }
}

/// Crashes selected processes at (or after) given instants; otherwise
/// defers to the base model.
///
/// Crash failures are what Theorem 2.4 (wait-freedom) quantifies over: the
/// consensus algorithm tolerates any number of them.
#[derive(Debug, Clone)]
pub struct CrashSchedule<M> {
    base: M,
    /// One entry per crashing process, ascending by pid, holding that
    /// process's earliest scheduled instant. `fate` runs on every
    /// simulated event, and a storm at n = 10^6 schedules a thousand
    /// crashes: the lookup is a binary search, not a scan.
    crashes: Vec<(ProcId, Ticks)>,
}

impl<M: TimingModel> CrashSchedule<M> {
    /// Wraps `base`; process `pid` crashes at the first action it issues at
    /// or after its scheduled instant (the earliest one, if `crashes`
    /// names it more than once).
    pub fn new(base: M, mut crashes: Vec<(ProcId, Ticks)>) -> CrashSchedule<M> {
        // Sorted by (pid, instant), the first entry of each pid is its
        // earliest instant, and `dedup_by_key` keeps exactly that one.
        crashes.sort_unstable();
        crashes.dedup_by_key(|&mut (p, _)| p);
        CrashSchedule { base, crashes }
    }
}

impl<M: TimingModel> TimingModel for CrashSchedule<M> {
    fn fate(&mut self, ctx: StepCtx) -> Fate {
        let at = self.crashes.binary_search_by_key(&ctx.pid, |&(p, _)| p);
        if at.is_ok_and(|i| ctx.now >= self.crashes[i].1) {
            return Fate::Crash;
        }
        self.base.fate(ctx)
    }
}

/// Fully scripted adversary: per-`(pid, proc_step)` fates, with a default
/// duration elsewhere.
///
/// This is how the deterministic counterexample schedules are built: the
/// Fischer mutual exclusion violation (E6) and the Theorem 3.2
/// non-convergence starvation schedule (E8).
#[derive(Debug, Clone)]
pub struct Scripted {
    default: Ticks,
    script: HashMap<(ProcId, u64), Fate>,
}

impl Scripted {
    /// All unscripted shared-memory accesses take `default` ticks; delays
    /// take their requested length.
    pub fn new(default: Ticks) -> Scripted {
        Scripted {
            default,
            script: HashMap::new(),
        }
    }

    /// Scripts the fate of process `pid`'s `proc_step`-th action
    /// (0-based, counting every action the process issues).
    pub fn set(mut self, pid: ProcId, proc_step: u64, fate: Fate) -> Scripted {
        self.script.insert((pid, proc_step), fate);
        self
    }
}

impl TimingModel for Scripted {
    fn fate(&mut self, ctx: StepCtx) -> Fate {
        if let Some(&f) = self.script.get(&(ctx.pid, ctx.proc_step)) {
            return f;
        }
        match ctx.action {
            Action::Delay(d) => Fate::Take(d),
            _ => Fate::Take(self.default),
        }
    }
}

/// Per-process fixed access times: process `i`'s shared-memory accesses
/// take `durations[i]` ticks (the last entry applies to any further
/// processes); delays take their requested length.
///
/// With every duration ≤ Δ this is a *legal* (failure-free) but highly
/// asymmetric world — the adversary of Theorem 3.2's non-convergence
/// argument (experiment E8): a systematically slow-but-legal victim loses
/// every race inside an unfair lock.
#[derive(Debug, Clone)]
pub struct PerProcess {
    durations: Vec<Ticks>,
}

impl PerProcess {
    /// See type docs.
    ///
    /// # Panics
    ///
    /// Panics if `durations` is empty or contains a zero duration.
    pub fn new(durations: Vec<Ticks>) -> PerProcess {
        assert!(!durations.is_empty(), "at least one duration is required");
        assert!(
            durations.iter().all(|d| d.0 > 0),
            "durations must be positive"
        );
        PerProcess { durations }
    }
}

impl TimingModel for PerProcess {
    fn fate(&mut self, ctx: StepCtx) -> Fate {
        match ctx.action {
            Action::Delay(d) => Fate::Take(d),
            _ => {
                let i = ctx.pid.0.min(self.durations.len() - 1);
                Fate::Take(self.durations[i])
            }
        }
    }
}

/// Periodic timing-failure bursts: virtual time alternates between a
/// *good* phase (the base model rules) and a *bad* phase (every
/// shared-memory access takes `inflated` ticks), forever.
///
/// Models environments where pressure recurs — GC pauses, cron spikes,
/// noisy neighbours. Time-resilient algorithms must re-converge after
/// every burst (§1.3's convergence is not a one-shot property).
#[derive(Debug, Clone)]
pub struct Bursts<M> {
    base: M,
    good: Ticks,
    bad: Ticks,
    inflated: Ticks,
}

impl<M: TimingModel> Bursts<M> {
    /// Wraps `base`: phases of `good` ticks alternate with failure bursts
    /// of `bad` ticks in which accesses take `inflated`.
    ///
    /// # Panics
    ///
    /// Panics if either phase is zero-length.
    pub fn new(base: M, good: Ticks, bad: Ticks, inflated: Ticks) -> Bursts<M> {
        assert!(good.0 > 0 && bad.0 > 0, "phases must be nonempty");
        Bursts {
            base,
            good,
            bad,
            inflated,
        }
    }

    fn in_burst(&self, now: Ticks) -> bool {
        now.0 % (self.good.0 + self.bad.0) >= self.good.0
    }
}

impl<M: TimingModel> TimingModel for Bursts<M> {
    fn fate(&mut self, ctx: StepCtx) -> Fate {
        if self.in_burst(ctx.now) {
            return match ctx.action {
                Action::Delay(d) => Fate::Take(Ticks(d.0.max(self.inflated.0))),
                _ => Fate::Take(self.inflated),
            };
        }
        self.base.fate(ctx)
    }
}

/// Convenience: the standard failure-free random model used across the
/// experiment harness — uniform access times in `[Δ/10, Δ]`.
pub fn standard_no_failures(delta: Delta, seed: u64) -> UniformAccess {
    let hi = delta.ticks();
    let lo = Ticks((hi.0 / 10).max(1));
    UniformAccess::new(lo, hi, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pid: usize, step: u64, now: u64, action: Action) -> StepCtx {
        StepCtx {
            pid: ProcId(pid),
            action,
            now: Ticks(now),
            global_step: step,
            proc_step: step,
        }
    }

    #[test]
    fn fixed_durations() {
        let mut m = Fixed::new(Ticks(7));
        assert_eq!(
            m.fate(ctx(0, 0, 0, Action::Read(tfr_registers::RegId(0)))),
            Fate::Take(Ticks(7))
        );
        assert_eq!(
            m.fate(ctx(0, 1, 0, Action::Delay(Ticks(100)))),
            Fate::Take(Ticks(100))
        );
    }

    #[test]
    fn uniform_within_bounds_and_deterministic() {
        let mut a = UniformAccess::new(Ticks(10), Ticks(20), 42);
        let mut b = UniformAccess::new(Ticks(10), Ticks(20), 42);
        for step in 0..100 {
            let c = ctx(0, step, 0, Action::Read(tfr_registers::RegId(0)));
            let fa = a.fate(c);
            assert_eq!(fa, b.fate(c), "same seed must give same durations");
            match fa {
                Fate::Take(t) => assert!(t >= Ticks(10) && t <= Ticks(20)),
                Fate::Crash => panic!("uniform model never crashes"),
            }
        }
    }

    #[test]
    fn windows_inflate_only_matching_steps() {
        let base = Fixed::new(Ticks(5));
        let mut m = FailureWindows::new(
            base,
            vec![Window {
                from: Ticks(100),
                to: Ticks(200),
                pids: Some(vec![ProcId(1)]),
                inflated: Ticks(999),
            }],
        );
        let read = Action::Read(tfr_registers::RegId(0));
        assert_eq!(
            m.fate(ctx(1, 0, 150, read)),
            Fate::Take(Ticks(999)),
            "inside window, matching pid"
        );
        assert_eq!(
            m.fate(ctx(0, 0, 150, read)),
            Fate::Take(Ticks(5)),
            "inside window, other pid"
        );
        assert_eq!(
            m.fate(ctx(1, 0, 250, read)),
            Fate::Take(Ticks(5)),
            "after window"
        );
        assert_eq!(
            m.fate(ctx(1, 0, 99, read)),
            Fate::Take(Ticks(5)),
            "before window"
        );
    }

    #[test]
    fn windows_stretch_delays_but_never_shorten() {
        let mut m = FailureWindows::new(
            Fixed::new(Ticks(5)),
            vec![Window {
                from: Ticks(0),
                to: Ticks(10),
                pids: None,
                inflated: Ticks(50),
            }],
        );
        assert_eq!(
            m.fate(ctx(0, 0, 5, Action::Delay(Ticks(100)))),
            Fate::Take(Ticks(100))
        );
        assert_eq!(
            m.fate(ctx(0, 0, 5, Action::Delay(Ticks(10)))),
            Fate::Take(Ticks(50))
        );
    }

    #[test]
    fn crash_schedule_triggers_at_or_after_instant() {
        let mut m = CrashSchedule::new(Fixed::new(Ticks(5)), vec![(ProcId(2), Ticks(100))]);
        let read = Action::Read(tfr_registers::RegId(0));
        assert_eq!(m.fate(ctx(2, 0, 99, read)), Fate::Take(Ticks(5)));
        assert_eq!(m.fate(ctx(2, 0, 100, read)), Fate::Crash);
        assert_eq!(m.fate(ctx(2, 0, 5000, read)), Fate::Crash);
        assert_eq!(m.fate(ctx(1, 0, 5000, read)), Fate::Take(Ticks(5)));
    }

    /// The indexed schedule decides exactly what the scan it replaced
    /// decided: `any(p == pid && now >= t)` over the raw list, kept here
    /// as the oracle. Lists carry repeated pids and out-of-order
    /// instants; the grid covers every listed and some unlisted pids,
    /// one tick either side of every instant.
    #[test]
    fn indexed_crash_schedule_equals_the_scan() {
        let read = Action::Read(tfr_registers::RegId(0));
        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(seed ^ 0xC4A5);
            let pids = 1 + rng.random_range(0..=11u64);
            let len = rng.random_range(0..=40u64);
            let crashes: Vec<(ProcId, Ticks)> = (0..len)
                .map(|_| {
                    let pid = ProcId(rng.random_range(0..=pids - 1) as usize);
                    (pid, Ticks(rng.random_range(0..=60u64)))
                })
                .collect();
            let scan = |pid: ProcId, now: Ticks| crashes.iter().any(|&(p, t)| p == pid && now >= t);
            let mut m = CrashSchedule::new(Fixed::new(Ticks(5)), crashes.clone());
            let mut instants: Vec<u64> = crashes
                .iter()
                .flat_map(|&(_, t)| [t.0.saturating_sub(1), t.0, t.0 + 1])
                .chain([0, u64::MAX])
                .collect();
            instants.sort_unstable();
            instants.dedup();
            // Pids past `pids` are never in the list.
            for pid in 0..pids as usize + 3 {
                for &now in &instants {
                    let want = if scan(ProcId(pid), Ticks(now)) {
                        Fate::Crash
                    } else {
                        Fate::Take(Ticks(5))
                    };
                    assert_eq!(
                        m.fate(ctx(pid, 0, now, read)),
                        want,
                        "seed {seed}, pid {pid}, now {now}, list {crashes:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scripted_overrides_by_proc_step() {
        let mut m = Scripted::new(Ticks(3))
            .set(ProcId(0), 2, Fate::Take(Ticks(5000)))
            .set(ProcId(1), 0, Fate::Crash);
        let read = Action::Read(tfr_registers::RegId(0));
        assert_eq!(m.fate(ctx(0, 0, 0, read)), Fate::Take(Ticks(3)));
        let c = StepCtx {
            pid: ProcId(0),
            action: read,
            now: Ticks(0),
            global_step: 9,
            proc_step: 2,
        };
        assert_eq!(m.fate(c), Fate::Take(Ticks(5000)));
        assert_eq!(m.fate(ctx(1, 0, 0, read)), Fate::Crash);
    }

    #[test]
    fn heavy_tail_spikes_exceed_base_range() {
        let mut m = HeavyTail::new(Ticks(10), Ticks(20), 0.5, 100, 7);
        let mut saw_spike = false;
        for step in 0..200 {
            if let Fate::Take(t) = m.fate(ctx(0, step, 0, Action::Read(tfr_registers::RegId(0)))) {
                if t > Ticks(20) {
                    saw_spike = true;
                    assert!(t >= Ticks(1000), "spike must be base × factor");
                }
            }
        }
        assert!(
            saw_spike,
            "with p=0.5 over 200 steps a spike is (overwhelmingly) expected"
        );
    }

    #[test]
    fn bursts_alternate_phases() {
        let mut m = Bursts::new(Fixed::new(Ticks(5)), Ticks(100), Ticks(50), Ticks(999));
        let read = Action::Read(tfr_registers::RegId(0));
        assert_eq!(
            m.fate(ctx(0, 0, 0, read)),
            Fate::Take(Ticks(5)),
            "good phase"
        );
        assert_eq!(
            m.fate(ctx(0, 0, 99, read)),
            Fate::Take(Ticks(5)),
            "end of good phase"
        );
        assert_eq!(
            m.fate(ctx(0, 0, 100, read)),
            Fate::Take(Ticks(999)),
            "burst"
        );
        assert_eq!(
            m.fate(ctx(0, 0, 149, read)),
            Fate::Take(Ticks(999)),
            "end of burst"
        );
        assert_eq!(
            m.fate(ctx(0, 0, 150, read)),
            Fate::Take(Ticks(5)),
            "next good phase"
        );
        assert_eq!(
            m.fate(ctx(0, 0, 250, read)),
            Fate::Take(Ticks(999)),
            "periodic"
        );
        assert_eq!(
            m.fate(ctx(0, 0, 120, Action::Delay(Ticks(2000)))),
            Fate::Take(Ticks(2000)),
            "delays are never shortened"
        );
    }

    #[test]
    fn per_process_durations_by_pid() {
        let mut m = PerProcess::new(vec![Ticks(10), Ticks(100)]);
        let read = Action::Read(tfr_registers::RegId(0));
        assert_eq!(m.fate(ctx(0, 0, 0, read)), Fate::Take(Ticks(10)));
        assert_eq!(m.fate(ctx(1, 0, 0, read)), Fate::Take(Ticks(100)));
        assert_eq!(
            m.fate(ctx(7, 0, 0, read)),
            Fate::Take(Ticks(100)),
            "last entry extends"
        );
        assert_eq!(
            m.fate(ctx(0, 0, 0, Action::Delay(Ticks(5)))),
            Fate::Take(Ticks(5))
        );
    }

    #[test]
    fn standard_model_within_delta() {
        let delta = Delta::from_ticks(1000);
        let mut m = standard_no_failures(delta, 1);
        for step in 0..100 {
            match m.fate(ctx(0, step, 0, Action::Read(tfr_registers::RegId(0)))) {
                Fate::Take(t) => assert!(t <= delta.ticks() && t.0 > 0),
                Fate::Crash => panic!("no crashes in the standard model"),
            }
        }
    }
}
