//! Chrome-trace / Perfetto JSON export.
//!
//! Emits the Trace Event Format (the `{"traceEvents": [...]}` JSON that
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev) load
//! directly): one *trace process* per added run, one *trace thread* per
//! [`ProcId`], complete (`"X"`) spans for delays / entry sections /
//! critical sections, instant (`"i"`) markers for retries, faults,
//! decisions and point hits, and a counter (`"C"`) track following the
//! AIMD Δ estimate over time.
//!
//! Timestamps in the format are microseconds; events carry nanoseconds,
//! so exported `ts` values are fractional µs (allowed by the format).

use crate::event::{Event, EventKind};
use crate::json::Json;
use std::collections::BTreeMap;
use tfr_registers::ProcId;

fn us(ts_ns: u64) -> Json {
    Json::Num(ts_ns as f64 / 1_000.0)
}

fn base(name: String, ph: &str, pid: u64, tid: usize, ts_ns: u64) -> Vec<(String, Json)> {
    vec![
        ("name".to_string(), Json::Str(name)),
        ("ph".to_string(), Json::str(ph)),
        ("pid".to_string(), Json::Num(pid as f64)),
        ("tid".to_string(), Json::Num(tid as f64)),
        ("ts".to_string(), us(ts_ns)),
    ]
}

fn complete(name: String, pid: u64, tid: usize, start_ns: u64, end_ns: u64, args: Json) -> Json {
    let mut ev = base(name, "X", pid, tid, start_ns);
    ev.push(("dur".to_string(), us(end_ns.saturating_sub(start_ns))));
    ev.push(("args".to_string(), args));
    Json::Obj(ev)
}

fn instant(name: String, pid: u64, tid: usize, ts_ns: u64, args: Json) -> Json {
    let mut ev = base(name, "i", pid, tid, ts_ns);
    ev.push(("s".to_string(), Json::str("t")));
    ev.push(("args".to_string(), args));
    Json::Obj(ev)
}

fn metadata(name: &str, pid: u64, tid: usize, label: String) -> Json {
    let mut ev = base(name.to_string(), "M", pid, tid, 0);
    ev.push(("args".to_string(), Json::obj([("name", Json::Str(label))])));
    Json::Obj(ev)
}

/// A flow event (`ph:"s"` at the send, `ph:"f"` at the receive). The
/// viewer binds the pair by matching `cat` + `name` + `id`; `bp:"e"` on
/// the finish end attaches the arrow to the enclosing slice.
fn flow(ph: &str, id: u64, name: String, pid: u64, tid: usize, ts_ns: u64) -> Json {
    let mut ev = base(name, ph, pid, tid, ts_ns);
    ev.push(("cat".to_string(), Json::str("net")));
    ev.push(("id".to_string(), Json::Num(id as f64)));
    if ph == "f" {
        ev.push(("bp".to_string(), Json::str("e")));
    }
    Json::Obj(ev)
}

/// Builds one combined Chrome trace out of any number of runs — e.g. a
/// native and a network timeline side by side in one viewer.
///
/// # Example
///
/// ```
/// use tfr_telemetry::chrome::ChromeTraceBuilder;
/// use tfr_telemetry::json::Json;
/// use tfr_telemetry::{Event, EventKind};
/// use tfr_registers::ProcId;
///
/// let events = [
///     Event { ts_ns: 0, pid: ProcId(0), kind: EventKind::LockWaitStart },
///     Event { ts_ns: 2_000, pid: ProcId(0), kind: EventKind::LockAcquired { wait_ns: 2_000 } },
///     Event { ts_ns: 5_000, pid: ProcId(0), kind: EventKind::LockReleased },
/// ];
/// let mut builder = ChromeTraceBuilder::new();
/// builder.add_run("native resilient-mutex", &events);
/// let text = builder.render();
/// // The export is valid JSON with a non-empty traceEvents array.
/// let parsed = Json::parse(&text).unwrap();
/// assert!(!parsed.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
/// ```
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    events: Vec<Json>,
    next_pid: u64,
    next_flow: u64,
}

impl ChromeTraceBuilder {
    /// An empty builder.
    pub fn new() -> ChromeTraceBuilder {
        ChromeTraceBuilder::default()
    }

    /// Adds one run as its own trace process named `name`. Events must be
    /// a merged timeline (sorted by `ts_ns`, as [`crate::Tracer::events`]
    /// returns).
    pub fn add_run(&mut self, name: &str, events: &[Event]) -> &mut ChromeTraceBuilder {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.events
            .push(metadata("process_name", pid, 0, name.to_string()));

        let mut seen_tids: BTreeMap<usize, ()> = BTreeMap::new();
        // Per-process open spans, closed by the matching end event.
        let mut delay_open: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        let mut wait_open: BTreeMap<usize, u64> = BTreeMap::new();
        let mut cs_open: BTreeMap<usize, u64> = BTreeMap::new();
        let mut quorum_open: BTreeMap<usize, u64> = BTreeMap::new();
        let mut down_open: BTreeMap<usize, u64> = BTreeMap::new();
        // Causal spans: id → (tid, start, parent, label). Ids are global,
        // so one map covers every lane of the run.
        let mut span_open: BTreeMap<u64, (usize, u64, u64, &'static str)> = BTreeMap::new();
        // Message flow pairing: a send on (span, from, to) waits for the
        // matching receive; the timeline is sorted, so sends come first.
        let mut pending_sends: BTreeMap<(u64, usize, usize), std::collections::VecDeque<u64>> =
            BTreeMap::new();

        for e in events {
            let ProcId(tid) = e.pid;
            if seen_tids.insert(tid, ()).is_none() {
                self.events
                    .push(metadata("thread_name", pid, tid, format!("p{tid}")));
            }
            match e.kind {
                EventKind::DelayStart { requested_ns } => {
                    delay_open.insert(tid, (e.ts_ns, requested_ns));
                }
                EventKind::DelayEnd => {
                    if let Some((start, requested_ns)) = delay_open.remove(&tid) {
                        self.events.push(complete(
                            "delay(Δ)".to_string(),
                            pid,
                            tid,
                            start,
                            e.ts_ns,
                            Json::obj([("requested_ns", Json::Num(requested_ns as f64))]),
                        ));
                    }
                }
                EventKind::LockWaitStart => {
                    wait_open.insert(tid, e.ts_ns);
                }
                EventKind::LockAcquired { wait_ns } => {
                    let start = wait_open
                        .remove(&tid)
                        .unwrap_or(e.ts_ns.saturating_sub(wait_ns));
                    self.events.push(complete(
                        "entry".to_string(),
                        pid,
                        tid,
                        start,
                        e.ts_ns,
                        Json::obj([("wait_ns", Json::Num(wait_ns as f64))]),
                    ));
                    cs_open.insert(tid, e.ts_ns);
                }
                EventKind::LockReleased => {
                    if let Some(start) = cs_open.remove(&tid) {
                        self.events.push(complete(
                            "critical section".to_string(),
                            pid,
                            tid,
                            start,
                            e.ts_ns,
                            Json::obj([] as [(&str, Json); 0]),
                        ));
                    }
                }
                EventKind::DeltaChanged {
                    estimate_ns,
                    contended,
                } => {
                    // An instant marker on the thread's own track…
                    self.events.push(instant(
                        e.kind.label(),
                        pid,
                        tid,
                        e.ts_ns,
                        Json::obj([
                            ("estimate_ns", Json::Num(estimate_ns as f64)),
                            ("contended", Json::Bool(contended)),
                        ]),
                    ));
                    // …and a counter sample so Perfetto draws the estimate
                    // as a curve over time.
                    let mut ev = base("Δ estimate (ns)".to_string(), "C", pid, tid, e.ts_ns);
                    ev.push((
                        "args".to_string(),
                        Json::obj([("estimate_ns", Json::Num(estimate_ns as f64))]),
                    ));
                    self.events.push(Json::Obj(ev));
                }
                EventKind::FaultFired {
                    point,
                    stall_ns,
                    crashed,
                } => {
                    self.events.push(instant(
                        e.kind.label(),
                        pid,
                        tid,
                        e.ts_ns,
                        Json::obj([
                            ("point", Json::str(point)),
                            ("stall_ns", Json::Num(stall_ns as f64)),
                            ("crashed", Json::Bool(crashed)),
                        ]),
                    ));
                }
                EventKind::CrashRecover { point, down_ns } => {
                    // An instant marker where the crash hit…
                    self.events.push(instant(
                        e.kind.label(),
                        pid,
                        tid,
                        e.ts_ns,
                        Json::obj([
                            ("point", Json::str(point)),
                            ("down_ns", Json::Num(down_ns as f64)),
                        ]),
                    ));
                    // …and the start of the down-until-recovered span.
                    down_open.insert(tid, e.ts_ns);
                    // A crash inside an open span abandons it (the pid
                    // stopped mid-passage); drop the halves so the next
                    // incarnation's spans pair cleanly.
                    wait_open.remove(&tid);
                    cs_open.remove(&tid);
                    delay_open.remove(&tid);
                }
                EventKind::Recovered {
                    incarnation,
                    repaired,
                } => {
                    if let Some(start) = down_open.remove(&tid) {
                        self.events.push(complete(
                            "down + recovery".to_string(),
                            pid,
                            tid,
                            start,
                            e.ts_ns,
                            Json::obj([
                                ("incarnation", Json::Num(incarnation as f64)),
                                ("repaired", Json::Bool(repaired)),
                            ]),
                        ));
                    }
                }
                EventKind::QuorumStart { .. } => {
                    quorum_open.insert(tid, e.ts_ns);
                }
                EventKind::QuorumEnd { reg, write, rtt_ns } => {
                    let start = quorum_open
                        .remove(&tid)
                        .unwrap_or(e.ts_ns.saturating_sub(rtt_ns));
                    self.events.push(complete(
                        format!("quorum {} r{reg}", if write { "write" } else { "read" }),
                        pid,
                        tid,
                        start,
                        e.ts_ns,
                        Json::obj([("rtt_ns", Json::Num(rtt_ns as f64))]),
                    ));
                }
                EventKind::SpanStart {
                    span,
                    parent,
                    label,
                } => {
                    span_open.insert(span, (tid, e.ts_ns, parent, label));
                }
                EventKind::SpanEnd { span } => {
                    if let Some((span_tid, start, parent, label)) = span_open.remove(&span) {
                        self.events.push(complete(
                            label.to_string(),
                            pid,
                            span_tid,
                            start,
                            e.ts_ns,
                            Json::obj([
                                ("span", Json::Num(span as f64)),
                                ("parent", Json::Num(parent as f64)),
                            ]),
                        ));
                    }
                }
                EventKind::MsgSend { to, reg: _, span } => {
                    self.events.push(instant(
                        e.kind.label(),
                        pid,
                        tid,
                        e.ts_ns,
                        Json::obj([("span", Json::Num(span as f64))]),
                    ));
                    if span != 0 {
                        pending_sends
                            .entry((span, tid, to.0))
                            .or_default()
                            .push_back(e.ts_ns);
                    }
                }
                EventKind::MsgRecv { from, reg, span } => {
                    self.events.push(instant(
                        e.kind.label(),
                        pid,
                        tid,
                        e.ts_ns,
                        Json::obj([("span", Json::Num(span as f64))]),
                    ));
                    // Tie the receive back to the earliest unmatched send
                    // of the same span on this link with a flow arrow.
                    if span != 0 {
                        if let Some(sent_ts) = pending_sends
                            .get_mut(&(span, from.0, tid))
                            .and_then(|q| q.pop_front())
                        {
                            let id = self.next_flow;
                            self.next_flow += 1;
                            let name = format!("msg r{reg} #{span}");
                            self.events
                                .push(flow("s", id, name.clone(), pid, from.0, sent_ts));
                            self.events.push(flow("f", id, name, pid, tid, e.ts_ns));
                        }
                    }
                }
                EventKind::QuorumVersion { reg, ts, wid } => {
                    self.events.push(instant(
                        e.kind.label(),
                        pid,
                        tid,
                        e.ts_ns,
                        Json::obj([
                            ("reg", Json::Num(reg as f64)),
                            ("ts", Json::Num(ts as f64)),
                            ("wid", Json::Num(wid as f64)),
                        ]),
                    ));
                }
                EventKind::RegRead { .. }
                | EventKind::RegWrite { .. }
                | EventKind::RegCas { .. }
                | EventKind::Retry { .. }
                | EventKind::RoundStart { .. }
                | EventKind::Decided { .. }
                | EventKind::PointHit { .. }
                | EventKind::MsgDropped { .. }
                | EventKind::ServiceEnqueue { .. }
                | EventKind::BatchCommit { .. }
                | EventKind::HeightDecide { .. }
                | EventKind::LogApply { .. }
                | EventKind::Mark { .. } => {
                    self.events.push(instant(
                        e.kind.label(),
                        pid,
                        tid,
                        e.ts_ns,
                        Json::obj([] as [(&str, Json); 0]),
                    ));
                }
            }
        }

        // A crash-stopped thread can leave spans open; render them as
        // zero-length markers so nothing silently disappears.
        for (tid, (start, _)) in delay_open {
            self.events.push(instant(
                "delay (unfinished)".to_string(),
                pid,
                tid,
                start,
                Json::obj([] as [(&str, Json); 0]),
            ));
        }
        for (tid, start) in wait_open {
            self.events.push(instant(
                "entry (unfinished)".to_string(),
                pid,
                tid,
                start,
                Json::obj([] as [(&str, Json); 0]),
            ));
        }
        for (tid, start) in cs_open {
            self.events.push(instant(
                "critical section (unfinished)".to_string(),
                pid,
                tid,
                start,
                Json::obj([] as [(&str, Json); 0]),
            ));
        }
        for (tid, start) in quorum_open {
            self.events.push(instant(
                "quorum op (unfinished)".to_string(),
                pid,
                tid,
                start,
                Json::obj([] as [(&str, Json); 0]),
            ));
        }
        for (span, (tid, start, parent, label)) in span_open {
            self.events.push(instant(
                format!("{label} (unfinished)"),
                pid,
                tid,
                start,
                Json::obj([
                    ("span", Json::Num(span as f64)),
                    ("parent", Json::Num(parent as f64)),
                ]),
            ));
        }
        self
    }

    /// Number of emitted trace records so far (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been added yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The trace as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("traceEvents", Json::Arr(self.events.clone())),
            ("displayTimeUnit", Json::str("ns")),
        ])
    }

    /// The trace serialized for writing to a `.json` file.
    pub fn render(&self) -> String {
        self.to_json().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, pid: usize, kind: EventKind) -> Event {
        Event {
            ts_ns,
            pid: ProcId(pid),
            kind,
        }
    }

    fn events_named<'a>(json: &'a Json, name: &str) -> Vec<&'a Json> {
        json.get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .collect()
    }

    #[test]
    fn runs_become_separate_trace_processes() {
        let mut b = ChromeTraceBuilder::new();
        b.add_run("native", &[ev(0, 0, EventKind::LockWaitStart)]);
        b.add_run("sim", &[ev(0, 0, EventKind::RoundStart { round: 1 })]);
        let json = b.to_json();
        let meta = events_named(&json, "process_name");
        assert_eq!(meta.len(), 2);
        let pids: Vec<f64> = meta
            .iter()
            .map(|m| m.get("pid").unwrap().as_num().unwrap())
            .collect();
        assert_ne!(pids[0], pids[1]);
    }

    #[test]
    fn spans_pair_start_and_end() {
        let mut b = ChromeTraceBuilder::new();
        b.add_run(
            "r",
            &[
                ev(1_000, 0, EventKind::DelayStart { requested_ns: 500 }),
                ev(3_000, 0, EventKind::DelayEnd),
            ],
        );
        let json = b.to_json();
        let spans = events_named(&json, "delay(Δ)");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(spans[0].get("ts").unwrap().as_num(), Some(1.0));
        assert_eq!(spans[0].get("dur").unwrap().as_num(), Some(2.0));
    }

    #[test]
    fn cs_span_runs_from_acquire_to_release() {
        let mut b = ChromeTraceBuilder::new();
        b.add_run(
            "r",
            &[
                ev(0, 1, EventKind::LockWaitStart),
                ev(4_000, 1, EventKind::LockAcquired { wait_ns: 4_000 }),
                ev(9_000, 1, EventKind::LockReleased),
            ],
        );
        let json = b.to_json();
        assert_eq!(events_named(&json, "entry").len(), 1);
        let cs = events_named(&json, "critical section");
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].get("dur").unwrap().as_num(), Some(5.0));
    }

    #[test]
    fn delta_changes_get_a_counter_track() {
        let mut b = ChromeTraceBuilder::new();
        b.add_run(
            "r",
            &[ev(
                100,
                0,
                EventKind::DeltaChanged {
                    estimate_ns: 2_000,
                    contended: true,
                },
            )],
        );
        let json = b.to_json();
        let counters = events_named(&json, "Δ estimate (ns)");
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].get("ph").unwrap().as_str(), Some("C"));
    }

    #[test]
    fn unfinished_spans_surface_as_markers() {
        let mut b = ChromeTraceBuilder::new();
        b.add_run("r", &[ev(0, 0, EventKind::LockWaitStart)]);
        let json = b.to_json();
        assert_eq!(events_named(&json, "entry (unfinished)").len(), 1);
    }

    #[test]
    fn causal_spans_become_nested_slices() {
        let mut b = ChromeTraceBuilder::new();
        b.add_run(
            "r",
            &[
                ev(
                    0,
                    0,
                    EventKind::SpanStart {
                        span: 10,
                        parent: 0,
                        label: "client.op",
                    },
                ),
                ev(
                    1_000,
                    0,
                    EventKind::SpanStart {
                        span: 11,
                        parent: 10,
                        label: "quorum.phase1",
                    },
                ),
                ev(4_000, 0, EventKind::SpanEnd { span: 11 }),
                ev(5_000, 0, EventKind::SpanEnd { span: 10 }),
            ],
        );
        let json = b.to_json();
        let child = events_named(&json, "quorum.phase1");
        assert_eq!(child.len(), 1);
        assert_eq!(child[0].get("ph").unwrap().as_str(), Some("X"));
        let args = child[0].get("args").unwrap();
        assert_eq!(args.get("span").unwrap().as_num(), Some(11.0));
        assert_eq!(args.get("parent").unwrap().as_num(), Some(10.0));
        let root = events_named(&json, "client.op");
        assert_eq!(
            root[0].get("args").unwrap().get("parent").unwrap().as_num(),
            Some(0.0)
        );
        assert_eq!(root[0].get("dur").unwrap().as_num(), Some(5.0));
    }

    #[test]
    fn unfinished_span_surfaces_as_marker() {
        let mut b = ChromeTraceBuilder::new();
        b.add_run(
            "r",
            &[ev(
                0,
                0,
                EventKind::SpanStart {
                    span: 1,
                    parent: 0,
                    label: "consensus",
                },
            )],
        );
        let json = b.to_json();
        assert_eq!(events_named(&json, "consensus (unfinished)").len(), 1);
    }

    #[test]
    fn stamped_messages_get_flow_arrows() {
        use tfr_registers::ProcId;
        let mut b = ChromeTraceBuilder::new();
        b.add_run(
            "r",
            &[
                ev(
                    100,
                    0,
                    EventKind::MsgSend {
                        to: ProcId(2),
                        reg: 5,
                        span: 9,
                    },
                ),
                ev(
                    900,
                    2,
                    EventKind::MsgRecv {
                        from: ProcId(0),
                        reg: 5,
                        span: 9,
                    },
                ),
            ],
        );
        let json = b.to_json();
        let all = json.get("traceEvents").unwrap().as_arr().unwrap();
        let start: Vec<_> = all
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("s"))
            .collect();
        let finish: Vec<_> = all
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("f"))
            .collect();
        assert_eq!((start.len(), finish.len()), (1, 1));
        assert_eq!(
            start[0].get("id").unwrap().as_num(),
            finish[0].get("id").unwrap().as_num(),
            "the pair shares one flow id"
        );
        assert_eq!(start[0].get("tid").unwrap().as_num(), Some(0.0));
        assert_eq!(finish[0].get("tid").unwrap().as_num(), Some(2.0));
        assert_eq!(finish[0].get("bp").unwrap().as_str(), Some("e"));
    }

    #[test]
    fn unstamped_messages_get_no_flow_arrows() {
        use tfr_registers::ProcId;
        let mut b = ChromeTraceBuilder::new();
        b.add_run(
            "r",
            &[
                ev(
                    100,
                    0,
                    EventKind::MsgSend {
                        to: ProcId(1),
                        reg: 0,
                        span: 0,
                    },
                ),
                ev(
                    400,
                    1,
                    EventKind::MsgRecv {
                        from: ProcId(0),
                        reg: 0,
                        span: 0,
                    },
                ),
            ],
        );
        let json = b.to_json();
        let all = json.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(all
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) != Some("s")));
    }

    #[test]
    fn render_parses_back() {
        let mut b = ChromeTraceBuilder::new();
        b.add_run(
            "r",
            &[ev(
                10,
                0,
                EventKind::FaultFired {
                    point: "delay.pre",
                    stall_ns: 7,
                    crashed: false,
                },
            )],
        );
        let parsed = Json::parse(&b.render()).unwrap();
        assert!(!parsed
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
    }
}
