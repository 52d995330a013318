//! The runner: repeats a workload for the time budget and reduces the
//! repetitions to one value per metric.
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! alternates untraced and traced repetitions, reports the per-layer
//! metrics from the traced ones, and reports the ratio of the two rates
//! as the tracing overhead.

use crate::metrics::{Source, END_TO_END, PER_LAYER};
use crate::probe::{peak_rss_mb, reset_peak_rss};
use crate::stats::{median, percentile};
use crate::workloads::{service, Mode, Rep, Size, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tfr_telemetry::Json;

/// One metric as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Why the value is 0 though the workload produces the metric.
    pub refused: Option<String>,
}

/// The result of one run of one workload.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub reps: usize,
    /// Each untraced repetition's operations per second, in run order.
    pub plain_rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub readings: Vec<Reading>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.readings
                        .iter()
                        .map(|r| {
                            let reading = Json::obj([
                                ("value", Json::Num(r.value)),
                                ("unit", Json::str(r.unit)),
                            ]);
                            (r.name.to_string(), reading)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The `--out` file: the contract line plus what `ledger check`
    /// needs to pair two runs.
    pub fn file_json(&self) -> Json {
        let Json::Obj(mut pairs) = self.contract_json() else {
            unreachable!("contract_json builds an object")
        };
        pairs.extend([
            ("workload".to_string(), Json::str(self.workload)),
            // As a string: a u64 seed does not survive a JSON number.
            ("seed".to_string(), Json::str(self.seed.to_string())),
            ("traced".to_string(), Json::Bool(self.traced)),
        ]);
        Json::Obj(pairs)
    }
}

/// Runs `workload` for about `seconds`: repetitions start as long as the
/// longest one so far still fits the budget. A traced run cycles through
/// the instrumentation modes and makes at least one repetition of each.
pub fn run(workload: &Workload, seed: u64, seconds: f64, traced: bool, size: Size) -> Outcome {
    let modes: &[Mode] = match (traced, workload.points) {
        (false, _) => &[Mode::Plain],
        (true, false) => &[Mode::Plain, Mode::Spans],
        (true, true) => &[Mode::Plain, Mode::Spans, Mode::Points],
    };
    let budget = Duration::from_secs_f64(seconds);
    let mut rep_fn = (workload.make)(seed, size);
    let started = Instant::now();
    let mut longest = Duration::ZERO;
    let mut reps: Vec<(Mode, Rep)> = Vec::new();
    // Whether every repetition's peak RSS is its own; if the mark could
    // not be reset even once, only the process-wide peak means anything.
    let mut own_peaks = true;
    loop {
        let mode = modes[reps.len() % modes.len()];
        let t0 = Instant::now();
        own_peaks &= reset_peak_rss();
        let mut rep = rep_fn(mode);
        rep.peak_rss_mb = peak_rss_mb();
        reps.push((mode, rep));
        longest = longest.max(t0.elapsed());
        if reps.len() >= modes.len() && started.elapsed() + longest > budget {
            break;
        }
    }
    if !own_peaks {
        let whole_run = peak_rss_mb();
        reps.iter_mut().for_each(|r| r.1.peak_rss_mb = whole_run);
    }
    reduce(workload.name, seed, traced, reps)
}

fn reduce(workload: &'static str, seed: u64, traced: bool, reps: Vec<(Mode, Rep)>) -> Outcome {
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (_, rep) in &reps {
        attempted += rep.attempted;
        failed += rep.failed;
        failures.extend(rep.failures.iter().cloned());
    }
    let of = |mode: Mode| reps.iter().filter(move |r| r.0 == mode).map(|r| &r.1);
    let rate = |mode: Mode| median(&of(mode).map(Rep::rate).collect::<Vec<_>>());
    let plain_rate = rate(Mode::Plain);

    let mut readings = Vec::new();
    if !traced {
        for m in END_TO_END {
            let value = match m.name {
                "ops_per_s" => plain_rate,
                "setup_s" => median(&of(Mode::Plain).map(|r| r.setup_s).collect::<Vec<_>>()),
                "peak_rss_mb" => {
                    median(&of(Mode::Plain).map(|r| r.peak_rss_mb).collect::<Vec<_>>())
                }
                other => unreachable!("no source for end-to-end metric {other}"),
            };
            readings.push(Reading {
                name: m.name,
                value,
                unit: m.unit,
                refused: None,
            });
        }
    } else {
        // Pool the sample streams, and gather each scalar's values.
        let mut streams: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        let mut vals: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for rep in of(Mode::Spans).chain(of(Mode::Points)) {
            for (name, samples) in &rep.samples {
                streams.entry(name).or_default().extend(samples);
            }
            for &(name, v) in &rep.vals {
                debug_assert!(
                    PER_LAYER.iter().any(|m| m.name == name),
                    "{workload} emits {name}, which the catalogue does not list"
                );
                vals.entry(name).or_default().push(v);
            }
        }
        for s in streams.values_mut() {
            s.sort_unstable();
        }
        // Counts that are a pure function of the seed must not move
        // between repetitions; one that does is a failed check.
        for m in PER_LAYER {
            let Source::Exact(on) = m.source else {
                continue;
            };
            if let Some(v) = vals.get(m.name).filter(|_| on.contains(&workload)) {
                attempted += 1;
                if v.iter().any(|x| *x != v[0]) {
                    failed += 1;
                    failures.push(format!("{} differs between repetitions: {v:?}", m.name));
                }
            }
        }
        let us = |ns: u64| ns as f64 / 1e3;
        let val = |name: &str| vals.get(name).map_or(0.0, |v| median(v));
        let share = |name: &str| val(name) * plain_rate;
        // 1 − traced ÷ untraced rate; 0 for a mode the workload lacks.
        let overhead = |mode: Mode| match rate(mode) {
            r if r > 0.0 => 1.0 - r / plain_rate,
            _ => 0.0,
        };
        for m in PER_LAYER {
            let mut refused = None;
            let value = match m.source {
                Source::Val => val(m.name),
                Source::PlainShare => share(m.name),
                Source::Exact(_) => vals.get(m.name).map_or(0.0, |v| v[0]),
                Source::Pct(stream, q) => match streams.get(stream) {
                    None => 0.0,
                    Some(s) => percentile(s, q).map_or_else(
                        || {
                            refused = Some(format!("{} samples cannot support it", s.len()));
                            0.0
                        },
                        us,
                    ),
                },
                Source::Max(stream) => streams
                    .get(stream)
                    .and_then(|s| s.last().copied())
                    .map_or(0.0, us),
                Source::Count(stream) => streams.get(stream).map_or(0.0, |s| s.len() as f64),
                Source::Runner => match m.name {
                    "failed_share" => failed as f64 / attempted.max(1) as f64,
                    "trace.overhead" => overhead(Mode::Spans),
                    "trace.points_overhead" => overhead(Mode::Points),
                    // What the spans hold beyond registers and delay is
                    // service + core CPU, inseparable from outside.
                    "service.self_share" if vals.contains_key("service.bursts") => {
                        val("trace.span_cover")
                            - share("registers.time_share")
                            - val("net.time_share")
                            - share("core.delay_share_est")
                    }
                    "service.self_share" => 0.0,
                    "net.read_over_link_rtt" => streams
                        .get("net.read")
                        .and_then(|s| percentile(s, 0.5))
                        .map_or(0.0, |ns| service::read_over_link_rtt(us(ns))),
                    other => unreachable!("no runner source for {other}"),
                },
            };
            readings.push(Reading {
                name: m.name,
                value,
                unit: m.unit,
                refused,
            });
        }
    }
    Outcome {
        workload,
        seed,
        traced,
        reps: reps.len(),
        plain_rates: of(Mode::Plain).map(Rep::rate).collect(),
        attempted,
        failed,
        failures,
        readings,
    }
}

/// Prints every metric as `name value unit`.
pub fn print_table(out: &Outcome) {
    println!(
        "workload {}  seed {}  {}  {} repetitions  threads available {}",
        out.workload,
        out.seed,
        if out.traced { "traced" } else { "untraced" },
        out.reps,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let rates: Vec<String> = out.plain_rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("untraced repetitions, ops/s: {}", rates.join(" "));
    for r in &out.readings {
        match &r.refused {
            None => println!("{:<34} {:>18.6} {}", r.name, r.value, r.unit),
            Some(why) => println!("{:<34} {:>18} {} ({why})", r.name, "refused", r.unit),
        }
    }
    println!(
        "checks: {} attempted, {} failed{}",
        out.attempted,
        out.failed,
        if out.correct() {
            ""
        } else {
            "  ** INCORRECT **"
        }
    );
    for f in &out.failures {
        println!("  failed: {f}");
    }
}
