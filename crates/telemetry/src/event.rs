//! The typed event schema shared by every traced layer.
//!
//! Every event is a `(timestamp, process, kind)` triple. Timestamps are
//! nanoseconds from the owning [`crate::Tracer`]'s epoch.

use tfr_registers::ProcId;

/// One traced occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds from the tracer's epoch.
    pub ts_ns: u64,
    /// The process the event belongs to.
    pub pid: ProcId,
    /// What happened.
    pub kind: EventKind,
}

/// The vocabulary of traced occurrences across every layer.
///
/// The schema is deliberately small and `Copy`: an event must fit in a
/// fixed-size ring-buffer slot, so payloads are ids and integers, never
/// heap data. Point and mark names are `&'static str` — the same interned
/// names the chaos layer already uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A shared register was read.
    RegRead {
        /// The register id.
        reg: u64,
    },
    /// A shared register was written.
    RegWrite {
        /// The register id.
        reg: u64,
        /// The value written.
        value: u64,
    },
    /// A compare-and-swap on a shared register (reserved: the paper's
    /// model is read/write registers, but derived objects may grow CAS).
    RegCas {
        /// The register id.
        reg: u64,
        /// Whether the CAS succeeded.
        ok: bool,
    },
    /// A `delay(d)` statement started.
    DelayStart {
        /// The requested duration in nanoseconds.
        requested_ns: u64,
    },
    /// The matching `delay(d)` finished (on real hardware, possibly much
    /// later than requested — that overshoot *is* a timing failure).
    DelayEnd,
    /// A protocol retried: a lost Fischer check, an extra pass of a loop.
    Retry {
        /// The protocol step that failed (a [`tfr_registers::chaos::points`] name).
        point: &'static str,
    },
    /// A consensus participant started round `round` (1-based).
    RoundStart {
        /// The round number.
        round: u64,
    },
    /// A consensus participant decided.
    Decided {
        /// The decided value.
        value: u64,
    },
    /// A mutex participant entered its entry section (started trying).
    LockWaitStart,
    /// A mutex participant acquired the lock.
    LockAcquired {
        /// Entry-section latency in nanoseconds (wait start → acquisition).
        wait_ns: u64,
    },
    /// A mutex participant released the lock.
    LockReleased,
    /// An `optimistic(Δ)` estimator changed its estimate.
    DeltaChanged {
        /// The new Δ estimate in nanoseconds.
        estimate_ns: u64,
        /// `true` for a multiplicative increase (contention observed),
        /// `false` for a clean-streak decrease.
        contended: bool,
    },
    /// An injected chaos fault fired on this process.
    FaultFired {
        /// The injection point the fault was aimed at.
        point: &'static str,
        /// Stall duration in nanoseconds (0 for a crash-stop).
        stall_ns: u64,
        /// Whether the fault crash-stopped the process.
        crashed: bool,
    },
    /// A crash-*recovery* fault fired on this process: it is down (no
    /// shared-memory operations) until its next incarnation starts —
    /// which the matching [`EventKind::Recovered`] marks.
    CrashRecover {
        /// The injection point the crash was aimed at.
        point: &'static str,
        /// The scheduled down time in nanoseconds.
        down_ns: u64,
    },
    /// The process's next incarnation finished its recovery section and
    /// rejoined the workload (closes the span opened by
    /// [`EventKind::CrashRecover`]).
    Recovered {
        /// The incarnation number just installed (1 = first restart).
        incarnation: u64,
        /// Whether the recovery section released an orphaned critical
        /// section.
        repaired: bool,
    },
    /// A chaos injection point was visited (trace points and injection
    /// points are the same vocabulary).
    PointHit {
        /// The point name.
        point: &'static str,
    },
    /// A free-form annotation (mirrors `Obs::Note` of the spec layer).
    Mark {
        /// The annotation name.
        name: &'static str,
        /// An annotation payload.
        value: u64,
    },
    /// A network message was handed to the link layer (pid = the sending
    /// node — client or replica).
    MsgSend {
        /// The destination node's pid.
        to: ProcId,
        /// The register the message is about.
        reg: u64,
        /// The causal span the message belongs to (0 = untraced). Replies
        /// echo the request's span, so one id ties the whole round trip —
        /// client send, replica receive, replica reply, client receive —
        /// back to the quorum-phase span that issued it.
        span: u64,
    },
    /// A network message was delivered (pid = the receiving node).
    MsgRecv {
        /// The originating node's pid.
        from: ProcId,
        /// The register the message is about.
        reg: u64,
        /// The causal span the message belongs to (0 = untraced).
        span: u64,
    },
    /// A network message was dropped at send time by a fault — loss or
    /// partition (pid = the sending node).
    MsgDropped {
        /// The intended destination node's pid.
        to: ProcId,
        /// The register the message is about.
        reg: u64,
        /// The causal span the message belongs to (0 = untraced).
        span: u64,
    },
    /// A majority-quorum register operation (ABD read or write) started
    /// on this client node.
    QuorumStart {
        /// The register being read or written.
        reg: u64,
        /// `true` for a write, `false` for a read.
        write: bool,
    },
    /// The matching quorum operation completed.
    QuorumEnd {
        /// The register that was read or written.
        reg: u64,
        /// `true` for a write, `false` for a read.
        write: bool,
        /// Full round-trip latency of the operation in nanoseconds
        /// (quorum start → majority acknowledged).
        rtt_ns: u64,
    },
    /// The sharded object service announced a client operation to a
    /// shard's combiner (pid = the announcing worker).
    ServiceEnqueue {
        /// The shard the router chose.
        shard: u32,
        /// The object key the client addressed.
        key: u64,
    },
    /// One consensus decision committed a whole batch of announced
    /// operations on a shard (pid = the worker whose proposal won the
    /// decision, so each batch is reported exactly once).
    BatchCommit {
        /// The shard the batch belongs to.
        shard: u32,
        /// The log slot the batch occupies.
        slot: u64,
        /// Number of operations the batch committed.
        size: u64,
    },
    /// A replicated-log height was decided: one consensus decision chose
    /// the proposer whose published batch occupies log position `height`
    /// (pid = the winning proposer, so each height is reported exactly
    /// once — the log-layer analogue of [`EventKind::BatchCommit`]).
    HeightDecide {
        /// The decided log height.
        height: u64,
        /// The winning proposer's pid.
        winner: u64,
        /// Number of operations in the winning batch.
        size: u64,
    },
    /// A log applier (worker or replica) applied the committed entry at
    /// `height` to its local state machine. `digest` is the applier's
    /// *chained prefix digest* after this entry — equal across all
    /// correct appliers at the same height, so any divergence (a wrong
    /// batch, an out-of-order apply) shows up as a digest mismatch.
    LogApply {
        /// The height just applied (appliers go strictly 0, 1, 2, …).
        height: u64,
        /// The chained applied-prefix digest after this entry.
        digest: u64,
    },
    /// A causal span opened on this process (closed by the matching
    /// [`EventKind::SpanEnd`]). Span ids are process-global and never
    /// reused; `parent` is the span that was current at entry (0 = root).
    SpanStart {
        /// This span's id (never 0).
        span: u64,
        /// The enclosing span's id (0 for a root span).
        parent: u64,
        /// The stage name, e.g. `"client.op"` or `"quorum.phase1"`.
        label: &'static str,
    },
    /// The matching span closed.
    SpanEnd {
        /// The id of the span that closed.
        span: u64,
    },
    /// A quorum operation completed having observed/installed this
    /// version — the online monitor's handle on ABD's "readers never go
    /// back in time" guarantee (per client lane, versions of one register
    /// must be monotone).
    QuorumVersion {
        /// The register the operation touched.
        reg: u64,
        /// The version's timestamp component.
        ts: u64,
        /// The version's writer-id tiebreak component.
        wid: u64,
    },
}

/// Mark names the network backend stamps on the timeline (`tfr-net`
/// emits them, [`crate::summary::heal_convergence_from_events`] consumes
/// them). Defined here so producer and consumer share one vocabulary
/// without a crate dependency from telemetry onto the network layer.
pub mod net_marks {
    /// A partition was installed (`value` = number of groups).
    pub const PARTITION: &str = "net.partition";
    /// All network faults were lifted (`value` = 0).
    pub const HEAL: &str = "net.heal";
    /// The message-drop probability changed (`value` = percent).
    pub const DROP: &str = "net.drop";
    /// A flat delay spike was added to every link (`value` = ns).
    pub const DELAY_SPIKE: &str = "net.delay-spike";
}

impl EventKind {
    /// A short, stable display name for exporters.
    pub fn label(&self) -> String {
        match self {
            EventKind::RegRead { reg } => format!("R r{reg}"),
            EventKind::RegWrite { reg, value } => format!("W r{reg}={value}"),
            EventKind::RegCas { reg, ok } => {
                format!("CAS r{reg} {}", if *ok { "ok" } else { "fail" })
            }
            EventKind::DelayStart { .. } => "delay(Δ)".to_string(),
            EventKind::DelayEnd => "delay-end".to_string(),
            EventKind::Retry { point } => format!("retry {point}"),
            EventKind::RoundStart { round } => format!("round {round}"),
            EventKind::Decided { value } => format!("decided {value}"),
            EventKind::LockWaitStart => "entry".to_string(),
            EventKind::LockAcquired { .. } => "acquired".to_string(),
            EventKind::LockReleased => "released".to_string(),
            EventKind::DeltaChanged {
                estimate_ns,
                contended,
            } => {
                format!("Δ{}{}ns", if *contended { "↑" } else { "↓" }, estimate_ns)
            }
            EventKind::FaultFired { point, crashed, .. } => {
                format!("{} @{point}", if *crashed { "crash" } else { "fault" })
            }
            EventKind::CrashRecover { point, .. } => format!("crash-recover @{point}"),
            EventKind::Recovered {
                incarnation,
                repaired,
            } => {
                format!(
                    "recovered #{incarnation}{}",
                    if *repaired { " (repaired CS)" } else { "" }
                )
            }
            EventKind::PointHit { point } => point.to_string(),
            EventKind::Mark { name, value } => format!("{name}={value}"),
            EventKind::MsgSend { to, reg, .. } => format!("send→{to} r{reg}"),
            EventKind::MsgRecv { from, reg, .. } => format!("recv←{from} r{reg}"),
            EventKind::MsgDropped { to, reg, .. } => format!("drop→{to} r{reg}"),
            EventKind::QuorumStart { reg, write } => {
                format!("{} r{reg}", if *write { "qwrite" } else { "qread" })
            }
            EventKind::QuorumEnd { reg, write, .. } => {
                format!("{} r{reg} done", if *write { "qwrite" } else { "qread" })
            }
            EventKind::ServiceEnqueue { shard, key } => format!("enq s{shard} k{key}"),
            EventKind::BatchCommit { shard, slot, size } => {
                format!("batch s{shard}@{slot} ×{size}")
            }
            EventKind::HeightDecide {
                height,
                winner,
                size,
            } => format!("h{height} → p{winner} ×{size}"),
            EventKind::LogApply { height, digest } => {
                format!("apply h{height} #{digest:x}")
            }
            EventKind::SpanStart { span, label, .. } => format!("{label} #{span}"),
            EventKind::SpanEnd { span } => format!("end #{span}"),
            EventKind::QuorumVersion { reg, ts, wid } => format!("r{reg} v{ts}.{wid}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(EventKind::RegRead { reg: 3 }.label(), "R r3");
        assert_eq!(EventKind::RegWrite { reg: 1, value: 7 }.label(), "W r1=7");
        assert_eq!(
            EventKind::DeltaChanged {
                estimate_ns: 500,
                contended: true
            }
            .label(),
            "Δ↑500ns"
        );
        assert!(EventKind::FaultFired {
            point: "delay.pre",
            stall_ns: 10,
            crashed: false
        }
        .label()
        .contains("delay.pre"));
        assert_eq!(
            EventKind::CrashRecover {
                point: "workload.cs",
                down_ns: 1000
            }
            .label(),
            "crash-recover @workload.cs"
        );
        assert_eq!(
            EventKind::Recovered {
                incarnation: 2,
                repaired: true
            }
            .label(),
            "recovered #2 (repaired CS)"
        );
        assert_eq!(
            EventKind::ServiceEnqueue { shard: 2, key: 40 }.label(),
            "enq s2 k40"
        );
        assert_eq!(
            EventKind::BatchCommit {
                shard: 1,
                slot: 9,
                size: 128
            }
            .label(),
            "batch s1@9 ×128"
        );
        assert_eq!(
            EventKind::SpanStart {
                span: 7,
                parent: 3,
                label: "quorum.phase1"
            }
            .label(),
            "quorum.phase1 #7"
        );
        assert_eq!(EventKind::SpanEnd { span: 7 }.label(), "end #7");
        assert_eq!(
            EventKind::HeightDecide {
                height: 4,
                winner: 1,
                size: 8
            }
            .label(),
            "h4 → p1 ×8"
        );
        assert_eq!(
            EventKind::LogApply {
                height: 4,
                digest: 0xbeef
            }
            .label(),
            "apply h4 #beef"
        );
        assert_eq!(
            EventKind::QuorumVersion {
                reg: 2,
                ts: 5,
                wid: 1
            }
            .label(),
            "r2 v5.1"
        );
    }

    #[test]
    fn events_are_small_copy_values() {
        // The ring buffer stores events inline; keep the slot size honest.
        assert!(
            std::mem::size_of::<Event>() <= 64,
            "event slot grew past a cache line"
        );
    }
}
