//! The live collector: a background thread that drains per-process event
//! rings *while the workload runs*, feeds the [`MonitorBank`], and keeps
//! a windowed [`LiveSnapshot`] current for dashboards.
//!
//! Attach with [`Collector::spawn`] before the workload starts, read
//! [`Collector::snapshot`] at any time (that is what the `obs_top`
//! example renders), and call [`Collector::finish`] at quiescence to
//! drain the remainder, run the finalize-only checks, and receive the
//! complete [`ObsReport`].

use crate::monitor::{IdMap, MonitorBank, Violation};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tfr_telemetry::json::Json;
use tfr_telemetry::metrics::Histogram;
use tfr_telemetry::{DrainCursor, Event, EventKind, Tracer};

/// Collector tuning.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Pause between ring drains. Shorter polls detect violations and
    /// refresh the snapshot sooner at slightly higher drain overhead.
    pub poll_interval: Duration,
    /// The sliding window the live throughput track averages over
    /// (event-time, not wall-time).
    pub window: Duration,
}

impl Default for CollectorConfig {
    fn default() -> CollectorConfig {
        CollectorConfig {
            poll_interval: Duration::from_millis(5),
            window: Duration::from_millis(100),
        }
    }
}

/// Per-stage latency summary derived from span start/end pairs.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// The span label ("client.op", "consensus", "quorum.phase1", …).
    pub label: String,
    /// Completed spans observed.
    pub count: u64,
    /// Median duration (log2-bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile duration (log2-bucket upper bound), nanoseconds.
    pub p99_ns: u64,
    /// Largest observed duration, nanoseconds.
    pub max_ns: u64,
}

impl StageStats {
    fn json(&self) -> Json {
        Json::obj([
            ("label", Json::str(&self.label)),
            ("count", Json::Num(self.count as f64)),
            ("p50_ns", Json::Num(self.p50_ns as f64)),
            ("p99_ns", Json::Num(self.p99_ns as f64)),
            ("max_ns", Json::Num(self.max_ns as f64)),
        ])
    }
}

/// What the collector has seen so far — refreshed every poll, cheap to
/// clone out through [`Collector::snapshot`].
#[derive(Debug, Clone, Default)]
pub struct LiveSnapshot {
    /// Events drained so far.
    pub events: u64,
    /// Events lost to full rings (from [`Tracer::dropped`]) — a nonzero
    /// value means every "absence of evidence" caveat is in force.
    pub dropped: u64,
    /// Operations committed (sum of `BatchCommit` sizes).
    pub ops: u64,
    /// Batches committed.
    pub batches: u64,
    /// Chaos faults fired.
    pub faults: u64,
    /// Crash-recovery completions.
    pub recoveries: u64,
    /// The newest Δ estimate, if an estimator reported one.
    pub delta_ns: Option<u64>,
    /// Committed ops per second over the sliding window (event-time).
    pub window_ops_per_sec: f64,
    /// Violations flagged so far.
    pub violations: usize,
    /// The most recent violation's description.
    pub last_violation: Option<String>,
    /// Per-stage latency tracks, alphabetical by label.
    pub stages: Vec<StageStats>,
    /// Drain polls completed.
    pub polls: u64,
}

impl LiveSnapshot {
    /// The snapshot as a JSON object — the streaming counterpart of
    /// `run_summary_json` (same spirit: one self-describing object), with
    /// ring-overflow counts included.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("events", Json::Num(self.events as f64)),
            ("dropped_events", Json::Num(self.dropped as f64)),
            ("ops", Json::Num(self.ops as f64)),
            ("batches", Json::Num(self.batches as f64)),
            ("faults", Json::Num(self.faults as f64)),
            ("recoveries", Json::Num(self.recoveries as f64)),
            (
                "delta_ns",
                self.delta_ns.map_or(Json::Null, |d| Json::Num(d as f64)),
            ),
            ("window_ops_per_sec", Json::Num(self.window_ops_per_sec)),
            ("violations", Json::Num(self.violations as f64)),
            ("polls", Json::Num(self.polls as f64)),
            (
                "stages",
                Json::Arr(self.stages.iter().map(StageStats::json).collect()),
            ),
        ])
    }
}

/// The collector thread's working state (owned by the thread, returned
/// at join).
struct CollectorState {
    bank: MonitorBank,
    /// Open spans: id → (label, start ts).
    open_spans: IdMap<u64, (&'static str, u64)>,
    /// Completed-span duration histograms per label.
    stages: Vec<(&'static str, Histogram)>,
    /// Recent `(ts_ns, size)` batch commits inside the window.
    recent: VecDeque<(u64, u64)>,
    window_ns: u64,
    events: u64,
    ops: u64,
    batches: u64,
    faults: u64,
    recoveries: u64,
    delta_ns: Option<u64>,
    polls: u64,
}

impl CollectorState {
    fn new(window: Duration) -> CollectorState {
        CollectorState {
            bank: MonitorBank::new(),
            open_spans: IdMap::default(),
            stages: Vec::new(),
            recent: VecDeque::new(),
            window_ns: window.as_nanos().max(1) as u64,
            events: 0,
            ops: 0,
            batches: 0,
            faults: 0,
            recoveries: 0,
            delta_ns: None,
            polls: 0,
        }
    }

    fn observe(&mut self, e: &Event) {
        self.events += 1;
        self.bank.observe(e);
        match e.kind {
            EventKind::SpanStart { span, label, .. } => {
                self.open_spans.insert(span, (label, e.ts_ns));
            }
            EventKind::SpanEnd { span } => {
                if let Some((label, start)) = self.open_spans.remove(&span) {
                    self.stage(label).record(e.ts_ns.saturating_sub(start));
                }
            }
            EventKind::BatchCommit { size, .. } => {
                self.ops += size;
                self.batches += 1;
                self.recent.push_back((e.ts_ns, size));
            }
            EventKind::FaultFired { .. } | EventKind::CrashRecover { .. } => {
                self.faults += 1;
            }
            EventKind::Recovered { .. } => self.recoveries += 1,
            EventKind::DeltaChanged { estimate_ns, .. } => {
                self.delta_ns = Some(estimate_ns);
            }
            _ => {}
        }
    }

    fn stage(&mut self, label: &'static str) -> &Histogram {
        if let Some(i) = self.stages.iter().position(|(l, _)| *l == label) {
            return &self.stages[i].1;
        }
        self.stages.push((label, Histogram::default()));
        &self.stages.last().expect("just pushed").1
    }

    /// Ops per second over the trailing window, by event time. Lanes
    /// drain unmerged, so the "now" edge is the max commit timestamp.
    fn window_rate(&mut self) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        let now = self.recent.iter().map(|&(ts, _)| ts).max().unwrap_or(0);
        let cutoff = now.saturating_sub(self.window_ns);
        while let Some(&(ts, _)) = self.recent.front() {
            if ts < cutoff {
                self.recent.pop_front();
            } else {
                break;
            }
        }
        let ops: u64 = self.recent.iter().map(|&(_, s)| s).sum();
        ops as f64 * 1e9 / self.window_ns as f64
    }

    fn snapshot(&mut self, dropped: u64) -> LiveSnapshot {
        let window_ops_per_sec = self.window_rate();
        let mut stages: Vec<StageStats> = self
            .stages
            .iter()
            .map(|(label, h)| StageStats {
                label: (*label).to_string(),
                count: h.count(),
                p50_ns: h.quantile(0.5),
                p99_ns: h.quantile(0.99),
                max_ns: h.max(),
            })
            .collect();
        stages.sort_by(|a, b| a.label.cmp(&b.label));
        LiveSnapshot {
            events: self.events,
            dropped,
            ops: self.ops,
            batches: self.batches,
            faults: self.faults,
            recoveries: self.recoveries,
            delta_ns: self.delta_ns,
            window_ops_per_sec,
            violations: self.bank.violations().len(),
            last_violation: self.bank.violations().last().map(|v| v.detail.clone()),
            stages,
            polls: self.polls,
        }
    }
}

/// The complete post-run report: totals, violations, stage latencies,
/// and whether any violation was flagged *while the run was still going*
/// (as opposed to only in the final drain).
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Events drained in total.
    pub events: u64,
    /// Events lost to full rings.
    pub dropped: u64,
    /// Operations committed.
    pub ops: u64,
    /// Batches committed.
    pub batches: u64,
    /// Chaos faults fired (including crash-recover).
    pub faults: u64,
    /// Crash-recovery completions.
    pub recoveries: u64,
    /// Every violation the monitors flagged.
    pub violations: Vec<Violation>,
    /// True when at least one violation was flagged by a live poll,
    /// before quiescence — the "caught in the act" bit.
    pub flagged_live: bool,
    /// Drain polls the collector completed.
    pub polls: u64,
    /// Per-stage latency summaries, alphabetical.
    pub stages: Vec<StageStats>,
}

impl ObsReport {
    /// True when no monitor flagged anything.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The report as a JSON object (CI gates parse this).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("events", Json::Num(self.events as f64)),
            ("dropped_events", Json::Num(self.dropped as f64)),
            ("ops", Json::Num(self.ops as f64)),
            ("batches", Json::Num(self.batches as f64)),
            ("faults", Json::Num(self.faults as f64)),
            ("recoveries", Json::Num(self.recoveries as f64)),
            ("clean", Json::Bool(self.clean())),
            ("flagged_live", Json::Bool(self.flagged_live)),
            ("polls", Json::Num(self.polls as f64)),
            (
                "violations",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| {
                            Json::obj([
                                ("monitor", Json::str(v.monitor)),
                                ("ts_ns", Json::Num(v.ts_ns as f64)),
                                ("detail", Json::str(&v.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "stages",
                Json::Arr(self.stages.iter().map(StageStats::json).collect()),
            ),
        ])
    }
}

/// A live collector attached to a [`Tracer`]: spawn before the workload,
/// snapshot during, finish after.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use tfr_obs::{Collector, CollectorConfig};
/// use tfr_registers::ProcId;
/// use tfr_telemetry::{EventKind, Trace, Tracer};
///
/// let tracer = Arc::new(Tracer::new(2));
/// let collector = Collector::spawn(Arc::clone(&tracer), CollectorConfig::default());
/// let trace = Trace::attached(Arc::clone(&tracer));
/// trace.emit(ProcId(0), EventKind::BatchCommit { shard: 0, slot: 0, size: 3 });
/// let report = collector.finish();
/// assert_eq!(report.ops, 3);
/// assert!(report.clean());
/// ```
pub struct Collector {
    stop: Arc<AtomicBool>,
    flagged_live: Arc<AtomicBool>,
    snapshot: Arc<Mutex<LiveSnapshot>>,
    tracer: Arc<Tracer>,
    handle: JoinHandle<(CollectorState, DrainCursor)>,
}

impl Collector {
    /// Starts the background drain thread over `tracer`'s rings.
    pub fn spawn(tracer: Arc<Tracer>, cfg: CollectorConfig) -> Collector {
        let stop = Arc::new(AtomicBool::new(false));
        let flagged_live = Arc::new(AtomicBool::new(false));
        let snapshot = Arc::new(Mutex::new(LiveSnapshot::default()));
        let handle = {
            let tracer = Arc::clone(&tracer);
            let stop = Arc::clone(&stop);
            let flagged_live = Arc::clone(&flagged_live);
            let snapshot = Arc::clone(&snapshot);
            std::thread::spawn(move || {
                let mut state = CollectorState::new(cfg.window);
                let mut cursor = DrainCursor::new();
                let mut buf = Vec::new();
                loop {
                    let stopping = stop.load(Ordering::Acquire);
                    buf.clear();
                    tracer.drain_new(&mut cursor, &mut buf);
                    for e in &buf {
                        state.observe(e);
                    }
                    state.polls += 1;
                    if !stopping && !state.bank.clean() {
                        flagged_live.store(true, Ordering::Release);
                    }
                    *snapshot.lock().unwrap_or_else(|e| e.into_inner()) =
                        state.snapshot(tracer.dropped());
                    if stopping {
                        return (state, cursor);
                    }
                    std::thread::sleep(cfg.poll_interval);
                }
            })
        };
        Collector {
            stop,
            flagged_live,
            snapshot,
            tracer,
            handle,
        }
    }

    /// The latest [`LiveSnapshot`] (refreshed every poll).
    pub fn snapshot(&self) -> LiveSnapshot {
        self.snapshot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// True as soon as any monitor flags a violation during a live poll.
    pub fn flagged_live(&self) -> bool {
        self.flagged_live.load(Ordering::Acquire)
    }

    /// Stops the drain thread, drains whatever remains, runs the
    /// finalize-only checks, and returns the complete report. Call at
    /// quiescence (after the workload's threads have joined).
    pub fn finish(self) -> ObsReport {
        self.stop.store(true, Ordering::Release);
        let (mut state, mut cursor) = self.handle.join().expect("the collector thread panicked");
        // The thread's final pass already drained post-stop events, but a
        // straggler lane may have published between its last load and our
        // join; one more drain is cheap and closes the window.
        let mut buf = Vec::new();
        self.tracer.drain_new(&mut cursor, &mut buf);
        for e in &buf {
            state.observe(e);
        }
        state.bank.finalize();
        let snap = state.snapshot(self.tracer.dropped());
        ObsReport {
            events: snap.events,
            dropped: snap.dropped,
            ops: snap.ops,
            batches: snap.batches,
            faults: snap.faults,
            recoveries: snap.recoveries,
            violations: state.bank.violations().to_vec(),
            flagged_live: self.flagged_live.load(Ordering::Acquire),
            polls: snap.polls,
            stages: snap.stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::ProcId;
    use tfr_telemetry::Trace;

    fn fast() -> CollectorConfig {
        CollectorConfig {
            poll_interval: Duration::from_millis(1),
            window: Duration::from_millis(50),
        }
    }

    #[test]
    fn collects_totals_and_stages_from_a_live_stream() {
        let tracer = Arc::new(Tracer::new(2));
        let collector = Collector::spawn(Arc::clone(&tracer), fast());
        let trace = Trace::attached(Arc::clone(&tracer));
        for i in 0..10u64 {
            trace.emit(
                ProcId(0),
                EventKind::SpanStart {
                    span: i + 1,
                    parent: 0,
                    label: "client.op",
                },
            );
            trace.emit(
                ProcId(0),
                EventKind::BatchCommit {
                    shard: 0,
                    slot: i,
                    size: 4,
                },
            );
            trace.emit(ProcId(0), EventKind::SpanEnd { span: i + 1 });
        }
        let report = collector.finish();
        assert_eq!(report.ops, 40);
        assert_eq!(report.batches, 10);
        assert_eq!(report.events, 30);
        assert!(report.clean());
        let stage = &report.stages[0];
        assert_eq!(stage.label, "client.op");
        assert_eq!(stage.count, 10);
        assert!(stage.p99_ns >= stage.p50_ns);
    }

    #[test]
    fn snapshot_updates_while_running() {
        let tracer = Arc::new(Tracer::new(1));
        let collector = Collector::spawn(Arc::clone(&tracer), fast());
        let trace = Trace::attached(Arc::clone(&tracer));
        trace.emit(
            ProcId(0),
            EventKind::BatchCommit {
                shard: 0,
                slot: 0,
                size: 7,
            },
        );
        // Wait out a few polls for the snapshot to reflect the commit.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let snap = collector.snapshot();
            if snap.ops == 7 {
                assert_eq!(snap.batches, 1);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "snapshot never caught up: {snap:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!collector.flagged_live());
        let report = collector.finish();
        assert!(report.polls >= 1);
        assert!(report.clean());
    }

    #[test]
    fn live_violation_sets_the_flag_before_finish() {
        let tracer = Arc::new(Tracer::new(2));
        let collector = Collector::spawn(Arc::clone(&tracer), fast());
        let trace = Trace::attached(Arc::clone(&tracer));
        // Two lanes claim the same (shard, slot): a duplicate commit.
        for pid in 0..2 {
            trace.emit(
                ProcId(pid),
                EventKind::BatchCommit {
                    shard: 0,
                    slot: 0,
                    size: 1,
                },
            );
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !collector.flagged_live() {
            assert!(
                std::time::Instant::now() < deadline,
                "the collector never flagged the duplicate live"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = collector.finish();
        assert!(report.flagged_live);
        assert!(!report.clean());
        assert_eq!(report.violations[0].monitor, "batch");
    }

    #[test]
    fn dropped_events_are_reported_end_to_end() {
        // A deliberately tiny ring: 4 slots, 10 events → 6 dropped.
        let tracer = Arc::new(Tracer::with_capacity(1, 4));
        let collector = Collector::spawn(Arc::clone(&tracer), fast());
        let trace = Trace::attached(Arc::clone(&tracer));
        for _ in 0..10 {
            trace.emit(ProcId(0), EventKind::LockReleased);
        }
        let report = collector.finish();
        assert_eq!(report.events, 4, "the ring kept what fits");
        assert_eq!(report.dropped, 6, "and reports exactly the overflow");
        let json = report.to_json();
        assert_eq!(
            json.get("dropped_events").and_then(|j| j.as_num()),
            Some(6.0)
        );
    }

    #[test]
    fn report_json_round_trips_through_the_parser() {
        let tracer = Arc::new(Tracer::new(1));
        let collector = Collector::spawn(Arc::clone(&tracer), fast());
        let trace = Trace::attached(Arc::clone(&tracer));
        trace.emit(
            ProcId(0),
            EventKind::BatchCommit {
                shard: 1,
                slot: 0,
                size: 2,
            },
        );
        let report = collector.finish();
        let parsed = Json::parse(&report.to_json().to_string()).expect("valid JSON");
        assert_eq!(parsed.get("ops").and_then(|j| j.as_num()), Some(2.0));
        assert_eq!(
            parsed.get("clean").and_then(|j| match j {
                Json::Bool(b) => Some(*b),
                _ => None,
            }),
            Some(true)
        );
    }
}
