//! `sim_storm`: the simulator at a million processes, on host time.
//!
//! The run is `tfr_chaos::storm::run_storm` taken apart at its public
//! seams (`storm_model`, `Sim::new`, `Sim::start`, `Engine::run_until`,
//! `Engine::finish`) so that building the model and initialising a
//! million processes counts as set-up and only the event loop is timed; a
//! smoke test holds the two compositions equal. Simulated
//! statistics are a pure function of the seed, so any drift in them is a
//! correctness failure, not noise.

use super::{Mode, Rep, RepFn, Size};
use std::time::Instant;
use tfr_chaos::storm::{storm_model, StormConfig, StormModel};
use tfr_registers::{Delta, Ticks};
use tfr_sim::sched::{Scheduler, TimerWheel};
use tfr_sim::workload::ScaleLoop;
use tfr_sim::{Engine, RunConfig, RunResult, Sim};

const DELTA_TICKS: u64 = 100;

/// The simulated statistics that must repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    pub steps: u64,
    pub timing_failures: u64,
    pub end_time: u64,
    pub crashed: u64,
}

impl Stats {
    fn of(r: &RunResult) -> Stats {
        Stats {
            steps: r.steps,
            timing_failures: r.timing_failures,
            end_time: r.end_time.0,
            crashed: r.crashed.iter().filter(|&&c| c).count() as u64,
        }
    }
}

const fn golden(
    seed: u64,
    steps: u64,
    timing_failures: u64,
    end_time: u64,
    crashed: u64,
) -> (u64, Stats) {
    (
        seed,
        Stats {
            steps,
            timing_failures,
            end_time,
            crashed,
        },
    )
}

/// Goldens at [`Size::Full`] by seed, each recorded from two independent
/// runs (separate processes) that agreed. A seed without a golden is
/// still held to repeat exactly across the repetitions of its run.
const GOLDENS: &[(u64, Stats)] = &[
    golden(1, 3_997_848, 1_972_482, 962, 998),
    golden(2, 3_997_847, 1_998_847, 964, 999),
    golden(3, 3_997_820, 1_893_987, 956, 999),
    golden(42, 3_997_829, 1_762_571, 946, 1_000),
    golden(100, 3_997_832, 1_998_832, 964, 1_000),
    golden(101, 3_997_837, 1_670_913, 939, 1_000),
    golden(102, 3_997_851, 1_959_560, 961, 999),
    golden(103, 3_997_817, 1_881_027, 955, 1_000),
    golden(104, 3_997_849, 1_959_463, 961, 1_000),
    golden(105, 3_997_828, 1_946_412, 960, 999),
    golden(106, 3_997_821, 1_854_428, 953, 999),
    golden(107, 3_997_835, 1_998_837, 964, 1_000),
    golden(108, 3_997_849, 1_906_643, 957, 999),
    golden(109, 3_997_848, 1_710_100, 942, 1_000),
];

pub fn config(size: Size) -> StormConfig {
    let n = match size {
        Size::Full => 1_000_000,
        Size::Tiny => 2_000,
    };
    let mut cfg = StormConfig::new(n, Delta::from_ticks(DELTA_TICKS)).rounds(1);
    // The default storm is 4 bursts of 20Δ at seeded instants in a run
    // that lasts about 10Δ: it begins at the earliest of four draws and
    // never ends, and its timing failures range from 0.4 M to 2.0 M from
    // one seed to the next. Many short bursts make every seed's storm
    // about as heavy (1.5–2.0 M), so that runs on different seeds can be
    // compared, and leave the calm after the storm in the run.
    cfg.bursts = 32;
    cfg.burst_deltas = 1;
    cfg
}

/// `run_storm`'s engine with every process initialised and its first
/// action issued, but nothing linearized yet; and the seconds the timing
/// model alone took to build.
pub fn build(seed: u64, cfg: &StormConfig) -> (f64, Engine<ScaleLoop, StormModel>) {
    let t0 = Instant::now();
    let model = storm_model(seed, cfg);
    let model_build_s = t0.elapsed().as_secs_f64();
    let workload = ScaleLoop::new(cfg.rounds, 64.min(cfg.n), 0).salt(seed);
    let sim = Sim::new(workload, RunConfig::new(cfg.n, cfg.delta), model);
    (model_build_s, sim.start())
}

/// `Sim::run`'s second half.
pub fn finish(mut engine: Engine<ScaleLoop, StormModel>) -> RunResult {
    engine.run_until(Ticks::NEVER);
    engine.finish()
}

/// Events per second of the public `TimerWheel` alone, holding `n` live
/// timers with the delays the engine's workloads use: the scheduler's
/// share of an engine event, measured without the engine.
fn sched_core_events_per_s(n: usize) -> f64 {
    const DELAY_HI: u64 = 512;
    let events = (2 * n as u64).max(100_000);
    let mut wheel = TimerWheel::new();
    for pid in 0..n {
        wheel.schedule(Ticks(1 + crate::probe::mix(pid as u64) % DELAY_HI), pid);
    }
    let t0 = Instant::now();
    for i in 0..events {
        let e = wheel.pop().expect("the live set never drains");
        wheel.schedule(Ticks(e.time.0 + 1 + crate::probe::mix(i) % DELAY_HI), e.pid);
    }
    events as f64 / t0.elapsed().as_secs_f64()
}

pub fn storm(seed: u64, size: Size) -> RepFn {
    let cfg = config(size);
    let golden = (size == Size::Full)
        .then(|| GOLDENS.iter().find(|g| g.0 == seed).map(|g| g.1))
        .flatten();
    let mut first: Option<Stats> = None;
    Box::new(move |mode| {
        let mut rep = Rep::default();
        let setup_from = Instant::now();
        let (model_build_s, engine) = build(seed, &cfg);
        rep.setup_s = setup_from.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let result = finish(engine);
        rep.timed_s = t0.elapsed().as_secs_f64();
        // An operation is one linearized simulated event.
        rep.ops = result.steps;

        let stats = Stats::of(&result);
        rep.check(1, result.timed_out as u64, || {
            "the storm was cut off by a budget".to_string()
        });
        let expect = *first.get_or_insert(stats);
        rep.check(1, (stats != expect) as u64, || {
            format!("statistics drifted between repetitions: {stats:?} after {expect:?}")
        });
        if let Some(golden) = golden {
            rep.check(1, (stats != golden) as u64, || {
                format!("statistics {stats:?} differ from the golden {golden:?}")
            });
        }

        let t_drop = Instant::now();
        drop(result);
        let result_drop_s = t_drop.elapsed().as_secs_f64();

        if mode == Mode::Spans {
            let sched_rate = sched_core_events_per_s(cfg.n);
            let ns_per_event = rep.timed_s * 1e9 / rep.ops as f64;
            rep.vals.extend([
                // One call is the whole region, so its span covers it.
                ("trace.span_cover", 1.0),
                ("sim.steps", stats.steps as f64),
                ("sim.timing_failures", stats.timing_failures as f64),
                ("sim.end_time_ticks", stats.end_time as f64),
                ("sim.crashed", stats.crashed as f64),
                ("sim.ns_per_event", ns_per_event),
                ("sim.sched_core_events_per_s", sched_rate),
                ("sim.sched_share_est", 1e9 / sched_rate / ns_per_event),
                ("sim.result_drop_s", result_drop_s),
                ("chaos.storm_model_build_s", model_build_s),
                ("events_per_s", rep.rate()),
            ]);
        }
        rep
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_chaos::storm::run_storm;

    #[test]
    fn the_split_engine_is_run_storm() {
        let cfg = config(Size::Tiny);
        for seed in [1, 42] {
            let (_, engine) = build(seed, &cfg);
            assert_eq!(finish(engine), run_storm(seed, &cfg), "seed {seed}");
        }
    }
}
