//! Scheduler microbench: wheel-vs-heap throughput at a steady live set
//! of `n` timers, isolating the data structure from the engine.
//!
//! ```text
//! cargo run --release -p tfr-sim --example schedprof -- [n] [hi] [g] [engine]
//! ```
//!
//! * `n` — live timer count (default 100 000)
//! * `hi` — delays are drawn from `1..=hi` ticks (default 512, which
//!   crosses the wheel's level-0/level-1 boundary so cascades run)
//! * `g` — delay granularity: delays are multiples of `g` (default 1)
//! * `engine` — run the full `Sim` over a `DelayOnly` workload instead
//!   of the raw pop/reschedule loop; comparing both modes is how the
//!   engine's constant per-event overhead was isolated from the
//!   scheduler cost (see the E25 notes in EXPERIMENTS.md)

use std::time::Instant;
use tfr_registers::{Delta, Ticks};
use tfr_sim::sched::{HeapScheduler, Scheduler, TimerWheel};
use tfr_sim::timing::Fixed;
use tfr_sim::workload::DelayOnly;
use tfr_sim::{RunConfig, RunResult, Sim};

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn quant(h: u64, hi: u64, g: u64) -> u64 {
    g * (1 + h % (hi / g))
}

fn drive(s: &mut impl Scheduler, n: usize, events: u64, hi: u64, g: u64) -> f64 {
    for pid in 0..n {
        s.schedule(Ticks(quant(mix(pid as u64), hi, g)), pid);
    }
    let start = Instant::now();
    for i in 0..events {
        let e = s.pop().expect("steady state");
        s.schedule(Ticks(e.time.0 + quant(mix(i), hi, g)), e.pid);
    }
    let secs = start.elapsed().as_secs_f64();
    events as f64 / secs
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let hi: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(512);
    let g: u64 = std::env::args()
        .nth(3)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1);
    let events = 4_000_000u64;
    if std::env::args().nth(4).as_deref() == Some("engine") {
        let rounds = (events / n as u64).max(4) as u32;
        let config = RunConfig::new(n, Delta::from_ticks(100)).max_time(Ticks::NEVER);
        let sim = || {
            Sim::new(
                DelayOnly::new(rounds, 1, hi),
                config.clone(),
                Fixed::new(Ticks(1)),
            )
        };
        let runs: [(&str, &dyn Fn() -> RunResult); 2] = [
            ("Wheel", &|| sim().run()),
            ("Heap", &|| sim().run_on(HeapScheduler::new())),
        ];
        for (kind, run) in runs {
            let start = Instant::now();
            let r = run();
            let secs = start.elapsed().as_secs_f64();
            println!(
                "engine {kind}: {:.1}M ev/s ({:.0}ns)",
                r.steps as f64 / secs / 1e6,
                secs * 1e9 / r.steps as f64
            );
        }
        return;
    }
    let wheel = drive(&mut TimerWheel::new(), n, events, hi, g);
    let heap = drive(&mut HeapScheduler::new(), n, events, hi, g);
    println!(
        "n={n} hi={hi}: wheel {:.1}M ev/s ({:.0}ns), heap {:.1}M ev/s ({:.0}ns), ratio {:.2}",
        wheel / 1e6,
        1e9 / wheel,
        heap / 1e6,
        1e9 / heap,
        wheel / heap
    );
}
