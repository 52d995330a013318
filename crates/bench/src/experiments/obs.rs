//! OBS (E23): what the live observability pipeline costs and what it
//! catches — service throughput with observability off / passive (rings
//! recording, nobody draining) / full (a background [`tfr_obs::Collector`]
//! streaming the rings through the online invariant monitors), the
//! per-stage latency tracks the full pipeline produces as a by-product,
//! and the monitor verdicts: the real combiner runs CLEAN while the
//! log's seeded reordering applier is flagged *during* the run.

use crate::table::{by_id, gate, GateResult};
use crate::Table;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfr_core::universal::Counter;
use tfr_log::{LogConfig, LogWorker, ReorderingApplier, ReplicatedLog};
use tfr_obs::{Collector, CollectorConfig, ObsReport};
use tfr_registers::ProcId;
use tfr_service::{run_load_native, CombinerKind, LoadConfig, LoadReport};
use tfr_telemetry::{with_pid, Trace, Tracer};

/// The common workload for the overhead comparison: enough clients that
/// the combiner actually combines, and enough ops that each rep's timed
/// region lasts ≥ 50 ms untraced on a 2-vCPU host (~300 k ops), so one
/// scheduler hiccup cannot move the rate.
fn workload() -> LoadConfig {
    LoadConfig {
        ops_per_client: 72,
        delta: Duration::from_micros(20),
        ..LoadConfig::new(4_096, 4, 4)
    }
}

/// Ring capacity per worker lane for traced runs — half as much again
/// as the ~170 k events one lane records in a rep, so the overhead rows
/// measure tracing, not overflow-and-drop short-circuits.
const RING_CAPACITY: usize = 1 << 18;

/// The in-process cost of one `Instant::now()` in ns — the unit tracing
/// is priced in, since every recorded event stamps exactly one. The
/// minimum over a few batches: a preempted batch only inflates it.
fn instant_now_ns() -> f64 {
    const CALLS: u32 = 1 << 18;
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..CALLS {
                last = std::hint::black_box(Instant::now());
            }
            (last - start).as_nanos() as f64 / CALLS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn collector_cfg() -> CollectorConfig {
    CollectorConfig {
        poll_interval: Duration::from_millis(2),
        window: Duration::from_millis(100),
    }
}

/// One rep: the load report, (events, dropped) for traced modes, and the
/// `ObsReport` when a collector was attached.
type ModeRep = (LoadReport, u64, u64, Option<ObsReport>);

/// One rep of the workload in the given mode.
fn run_mode(mode: &str, cfg: &LoadConfig) -> ModeRep {
    match mode {
        "off" => (run_load_native(cfg, &Trace::disabled()), 0, 0, None),
        "passive" => {
            let tracer = Arc::new(Tracer::with_capacity(cfg.workers, RING_CAPACITY));
            let report = run_load_native(cfg, &Trace::attached(Arc::clone(&tracer)));
            let events = tracer.events().len() as u64;
            (report, events, tracer.dropped(), None)
        }
        "full" => {
            let tracer = Arc::new(Tracer::with_capacity(cfg.workers, RING_CAPACITY));
            let collector = Collector::spawn(Arc::clone(&tracer), collector_cfg());
            let report = run_load_native(cfg, &Trace::attached(Arc::clone(&tracer)));
            let obs = collector.finish();
            (report, obs.events, obs.dropped, Some(obs))
        }
        other => unreachable!("unknown mode {other}"),
    }
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

/// The monitor-teeth collector: the overhead config, polled every 1 ms.
fn monitor_cfg() -> CollectorConfig {
    CollectorConfig {
        poll_interval: Duration::from_millis(1),
        ..collector_cfg()
    }
}

/// The applier run's height budget: it stops early once the collector's
/// live flag is up, so it only runs out if no poll caught the swap.
const APPLIER_HEIGHTS: u64 = 16_384;

/// Runs the log with a [`ReorderingApplier`] on its replica lane under a
/// live [`Collector`]: one proposer commits one op per height and the
/// applier follows it, until the collector flags the run or the heights
/// run out. Returns the ops committed and the collector's report.
fn reordering_applier_under_collector() -> (u64, ObsReport) {
    let cfg = LogConfig {
        n: 1,
        replicas: 1,
        heights: APPLIER_HEIGHTS as usize,
        max_batch: 1,
        window: 4,
        delta: Duration::from_micros(10),
    };
    let tracer = Arc::new(Tracer::new(cfg.lanes()));
    let log =
        Arc::new(ReplicatedLog::new(Counter, cfg).with_trace(Trace::attached(Arc::clone(&tracer))));
    let collector = Collector::spawn(Arc::clone(&tracer), monitor_cfg());
    let ops = with_pid(ProcId(0), || {
        let mut worker = LogWorker::new(Arc::clone(&log), ProcId(0));
        let mut bad = ReorderingApplier::new(Arc::clone(&log), 0, 0xBAD5EED);
        for op in 1..=APPLIER_HEIGHTS {
            worker.enqueue(&[op]);
        }
        let mut i = 0u32;
        while (worker.pending() > 0 || worker.applied_len() < APPLIER_HEIGHTS)
            && !collector.flagged_live()
        {
            worker.pump();
            // Polling every 4th pump leaves adjacent heights decided
            // together: the swap's opportunity.
            if i.is_multiple_of(4) {
                bad.poll();
            }
            i += 1;
        }
        bad.poll();
        assert!(bad.fired(), "the seeded swap must fire");
        worker.applied_len()
    });
    (ops, collector.finish())
}

/// One E23c row from a collector's report.
fn verdict_row(subject: &str, ops: u64, obs: &ObsReport) -> Vec<String> {
    vec![
        subject.to_string(),
        ops.to_string(),
        obs.violations.len().to_string(),
        obs.violations
            .first()
            .map_or("—".to_string(), |v| v.monitor.to_string()),
        if obs.clean() {
            "—".into()
        } else if obs.flagged_live {
            "live".into()
        } else {
            "at quiescence".into()
        },
        if obs.clean() { "CLEAN" } else { "VIOLATION" }.to_string(),
    ]
}

/// OBS — see module docs.
pub fn obs() -> Vec<Table> {
    // -----------------------------------------------------------------
    // Table 1: throughput with observability off / passive / full.
    // Best-of-7 per mode: one rep's rate moves by ~10 % with how four
    // workers share two cores, so a single rep per mode cannot price a
    // ~25 % difference. Overhead is relative to the best "off" rep, and
    // the tracing CPU it implies is priced per recorded event.
    // -----------------------------------------------------------------
    const REPS: usize = 7;
    let cfg = workload();
    // Worker threads that actually run at once: the extra wall time per
    // op is spent on this many cores.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let parallel = cfg.workers.min(cores) as f64;
    let now_ns = instant_now_ns();
    let mut t1 = Table::new(
        "E23a",
        "observability overhead: off vs passive rings vs full live pipeline",
        &[
            "mode",
            "ops",
            "ops/sec (best of 7)",
            "overhead %",
            "events",
            "events/op",
            "tracing ns/event",
            "now() ns",
            "dropped",
            "monitors",
        ],
    );
    const MODES: [&str; 3] = ["off", "passive", "full"];
    // The first rep of a process runs on a cold heap; it is not timed.
    run_mode("off", &cfg);
    // The modes alternate rep by rep, so drift in the host's load hits
    // all three alike.
    let mut best: [Option<ModeRep>; 3] = Default::default();
    for _ in 0..REPS {
        for (slot, mode) in best.iter_mut().zip(MODES) {
            let rep = run_mode(mode, &cfg);
            assert!(
                rep.0.state_ok && rep.0.audit_complete,
                "E23 workload must stay correct in mode {mode}"
            );
            if slot
                .as_ref()
                .is_none_or(|b| rep.0.ops_per_sec > b.0.ops_per_sec)
            {
                *slot = Some(rep);
            }
        }
    }
    let best_off = best[0]
        .as_ref()
        .expect("at least one rep ran")
        .0
        .ops_per_sec;
    let mut full_obs: Option<ObsReport> = None;
    for (slot, mode) in best.into_iter().zip(MODES) {
        let (report, events, dropped, obs) = slot.expect("at least one rep ran");
        let overhead = 100.0 * (best_off - report.ops_per_sec) / best_off.max(1e-9);
        let events_per_op = events as f64 / report.ops.max(1) as f64;
        // Extra wall time per op, times the cores it ran on, spread over
        // the events each op recorded.
        let ns_per_event = (1.0 / report.ops_per_sec.max(1e-9) - 1.0 / best_off.max(1e-9))
            * parallel
            / events_per_op.max(1e-9)
            * 1e9;
        let monitors = match &obs {
            None => "—".to_string(),
            Some(o) if o.clean() => "CLEAN".to_string(),
            Some(o) => format!("VIOLATION ({})", o.violations.len()),
        };
        let traced = |cell: String| if mode == "off" { "—".into() } else { cell };
        t1.row(vec![
            mode.to_string(),
            report.ops.to_string(),
            format!("{:.0}", report.ops_per_sec),
            traced(format!("{overhead:.1}")),
            events.to_string(),
            format!("{events_per_op:.2}"),
            traced(format!("{ns_per_event:.1}")),
            traced(format!("{now_ns:.1}")),
            dropped.to_string(),
            monitors,
        ]);
        if let Some(o) = obs {
            full_obs = Some(o);
        }
    }
    t1.note("passive = rings recording with nobody draining; full = background collector");
    t1.note("streaming the rings through the online invariant monitors while the run goes.");
    t1.note(format!(
        "tracing ns/event = (1/traced − 1/off rate) × min(workers, cores) = {parallel} ÷ \
         events/op: the CPU one recorded event costs. Gated \
         (`E23a.tracing_cpu_per_event_within_3_now_calls`) at ≤ 3 × now() ns, the \
         in-process cost of the one `Instant::now()` each event stamps."
    ));
    t1.note("overhead % is reported, not gated: its denominator is the untraced service,");
    t1.note("so it grows whenever consensus gets cheaper and the per-event cost stays put");
    t1.note("(on a 2-vCPU host it went from ~10 % to 22–35 % when a slot decision went");
    t1.note("from 32 Algorithm 1 instances to ⌈log₂ n⌉).");

    // -----------------------------------------------------------------
    // Table 2: the per-stage latency tracks the full pipeline measured
    // as a by-product — the causal-span histogram per stage label.
    // -----------------------------------------------------------------
    let mut t2 = Table::new(
        "E23b",
        "per-stage latency from the live collector (full mode, best rep)",
        &["stage", "count", "p50 µs", "p99 µs", "max µs"],
    );
    let obs_report = full_obs.expect("the full mode ran");
    for stage in &obs_report.stages {
        t2.row(vec![
            stage.label.to_string(),
            stage.count.to_string(),
            fmt_us(stage.p50_ns),
            fmt_us(stage.p99_ns),
            fmt_us(stage.max_ns),
        ]);
    }
    t2.note("Stages are paired SpanStart/SpanEnd events: client.op → client.enqueue /");
    t2.note("batch.drive → consensus. Histograms are log2-bucketed (§ metrics).");

    // -----------------------------------------------------------------
    // Table 3: monitor teeth. The real combiner must run CLEAN, and a
    // seeded mutant of code that runs — the log's reordering applier,
    // h + 1 applied before h once — must be flagged by the log prefix
    // monitor under the same collector.
    // -----------------------------------------------------------------
    let mut t3 = Table::new(
        "E23c",
        "online monitor verdicts: real combiner vs the log's reordering applier",
        &[
            "subject",
            "ops",
            "violations",
            "first monitor",
            "flagged",
            "verdict",
        ],
    );
    let cfg = LoadConfig {
        ops_per_client: 16,
        delta: Duration::from_micros(20),
        ..LoadConfig::new(1_024, 4, 4)
    };
    let tracer = Arc::new(Tracer::with_capacity(cfg.workers, RING_CAPACITY));
    let collector = Collector::spawn(Arc::clone(&tracer), monitor_cfg());
    let report = run_load_native(&cfg, &Trace::attached(Arc::clone(&tracer)));
    let obs = collector.finish();
    assert!(
        obs.clean(),
        "the real combiner must run CLEAN: {:?}",
        obs.violations
    );
    t3.row(verdict_row(
        CombinerKind::FlatCombining.name(),
        report.ops,
        &obs,
    ));
    let (ops, obs) = reordering_applier_under_collector();
    t3.row(verdict_row("reordering-applier", ops, &obs));
    t3.note("The service's seeded combiner mutants (E22d) are faults in the responses a");
    t3.note("worker hands back, which no monitor watches: under the collector they read");
    t3.note("CLEAN, and the history sampler is what rejects them. The applier row runs the");
    t3.note("log with one replica lane swapping an adjacent pair of heights once.");
    t3.note("Monitors are sound, not complete: a flag is a true violation; CLEAN proves");
    t3.note("nothing beyond what was observed.");

    vec![t1, t2, t3]
}

/// The gates on E23: what the live pipeline may cost and what it must
/// catch. The cost ceiling is per recorded event, in units of the same
/// host's `Instant::now()`, over best-of-7 reps of ≥ 50 ms — it moves
/// neither with the machine nor with how cheap the traced service is.
pub fn gates(tables: &[Table]) -> Vec<GateResult> {
    vec![
        gate("E23a.tracing_cpu_per_event_within_3_now_calls", || {
            let overhead = by_id(tables, "E23a")?;
            let off = overhead.row_where(&[("mode", "off")])?;
            off.expect(
                overhead.rows.len() == 3,
                "exactly the modes off, passive, full",
            )?;
            off.expect(off.num("ops/sec (best of 7)")? > 0.0, "ops/sec > 0")?;
            // A dropped event costs no stamp: the price needs a full ring
            // (the full pipeline's losslessness is gated below).
            let passive = overhead.row_where(&[("mode", "passive")])?;
            passive.expect(passive.num("dropped")? == 0.0, "dropped = 0")?;
            for mode in ["passive", "full"] {
                let row = overhead.row_where(&[("mode", mode)])?;
                row.expect(row.num("events/op")? > 0.0, "events/op > 0")?;
                row.expect(
                    row.num("tracing ns/event")? <= 3.0 * row.num("now() ns")?,
                    "tracing ns/event <= 3 × now() ns",
                )?;
            }
            Ok(())
        }),
        gate("E23a.full_pipeline_clean_and_lossless", || {
            let full = by_id(tables, "E23a")?.row_where(&[("mode", "full")])?;
            full.expect(full.text("monitors")? == "CLEAN", "monitors = CLEAN")?;
            full.expect(full.num("events")? > 0.0, "events > 0")?;
            full.expect(full.num("dropped")? == 0.0, "dropped = 0")
        }),
        // The causal chain shows up as latency tracks.
        gate("E23b.stage_tracks_present", || {
            let stages = by_id(tables, "E23b")?;
            for label in ["client.op", "batch.drive", "consensus"] {
                stages.row_where(&[("stage", label)])?;
            }
            for row in stages.rows_where(&[])? {
                row.expect(row.num("count")? > 0.0, "count > 0")?;
            }
            Ok(())
        }),
        gate("E23c.real_combiner_clean", || {
            let real = by_id(tables, "E23c")?.row_where(&[("subject", "flat-combining")])?;
            real.expect(real.text("verdict")? == "CLEAN", "verdict = CLEAN")
        }),
        // The log's seeded reordering applier is flagged, first by the
        // log prefix monitor — live on any sanely-scheduled runner, at
        // quiescence otherwise.
        gate("E23c.monitors_flag_the_reordering_applier", || {
            let row = by_id(tables, "E23c")?.row_where(&[("subject", "reordering-applier")])?;
            row.expect(row.text("verdict")? == "VIOLATION", "verdict = VIOLATION")?;
            row.expect(row.num("violations")? > 0.0, "violations > 0")?;
            row.expect(row.text("first monitor")? == "log", "first monitor = log")?;
            let flagged = row.text("flagged")?;
            row.expect(
                flagged == "live" || flagged == "at quiescence",
                "flagged live or at quiescence",
            )
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::gates;
    use crate::experiments::testkit::{assert_gates_reject, table, Doctor::*};

    #[test]
    fn every_obs_gate_rejects_its_mutant() {
        let fixture = [
            table(
                "E23a",
                "mode | ops/sec (best of 7) | overhead % | events | events/op | \
                 tracing ns/event | now() ns | dropped | monitors",
                &[
                    "off | 4900000 | — | 0 | 0.00 | — | — | 0 | —",
                    "passive | 3700000 | 24.5 | 690000 | 2.34 | 56.6 | 24.0 | 0 | —",
                    "full | 3600000 | 26.5 | 690000 | 2.34 | 63.0 | 24.0 | 0 | CLEAN",
                ],
            ),
            table(
                "E23b",
                "stage | count",
                &[
                    "client.op | 16384",
                    "batch.drive | 3700",
                    "consensus | 3700",
                ],
            ),
            table(
                "E23c",
                "subject | violations | first monitor | flagged | verdict",
                &[
                    "flat-combining | 0 | — | — | CLEAN",
                    "reordering-applier | 2 | log | live | VIOLATION",
                ],
            ),
        ];
        assert_gates_reject(
            gates,
            &fixture,
            &[
                (
                    "E23a.tracing_cpu_per_event_within_3_now_calls",
                    &[
                        Set(1, "tracing ns/event", "72.1"),
                        Set(2, "now() ns", "20.9"),
                        Set(1, "dropped", "5"),
                        Set(2, "events/op", "0.00"),
                        DropRow(1),
                    ],
                ),
                (
                    "E23a.full_pipeline_clean_and_lossless",
                    &[Set(2, "monitors", "VIOLATION (1)"), Set(2, "dropped", "3")],
                ),
                (
                    "E23b.stage_tracks_present",
                    &[DropRow(2), Set(0, "count", "0")],
                ),
                (
                    "E23c.real_combiner_clean",
                    &[Set(0, "verdict", "VIOLATION")],
                ),
                (
                    "E23c.monitors_flag_the_reordering_applier",
                    &[
                        Set(1, "verdict", "CLEAN"),
                        Set(1, "violations", "0"),
                        Set(1, "first monitor", "batch"),
                        Set(1, "flagged", "—"),
                        DropRow(1),
                    ],
                ),
            ],
        );
    }
}
