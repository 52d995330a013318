//! Online invariant monitors: streaming checkers that consume the event
//! stream *while the workload runs* and flag safety violations the moment
//! the evidence arrives.
//!
//! # Soundness contract
//!
//! Every monitor here is **sound but not complete**: a raised
//! [`Violation`] is a true violation of the stated invariant (assuming
//! honest event emission), but the *absence* of a flag proves nothing —
//! the violating events may have been dropped by a full ring, pruned from
//! a monitor's bounded memory, or simply never sampled. This is the only
//! honest contract an online checker over a lossy, multi-lane event
//! stream can offer; quiescent-state proofs stay with the audit and the
//! linearizability checkers.
//!
//! # Arrival-order robustness
//!
//! Monitors receive events lane by lane (per-process order preserved, no
//! cross-lane merge — the contract of
//! [`tfr_telemetry::Tracer::drain_new`]). Each monitor therefore keys its
//! state per process where per-lane order suffices
//! ([`QuorumMonitor`], [`RecoveryMonitor`]), or reasons only about
//! *completed* intervals with explicit timestamps where cross-lane
//! comparison is needed ([`MutexMonitor`]), or uses order-free set logic
//! ([`BatchMonitor`]). None of them can be fooled into a false positive
//! by lanes arriving in any interleaving.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tfr_telemetry::json::Json;
use tfr_telemetry::{Event, EventKind};

/// A map keyed by the program's own counters — pids, shards, slots,
/// heights, span ids. No key comes from outside the process, so a
/// multiply-rotate hash stands in for SipHash, which cost the collector
/// as much per event as everything else it does.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The hasher behind [`IdMap`]: one rotate, xor and multiply per word.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Completed critical-section intervals kept for cross-lane overlap
/// checks before old ones are pruned. Bounds memory; pruning can only
/// cost detections, never invent them.
const MUTEX_INTERVALS_KEPT: usize = 4096;

/// A monitor's verdict that an invariant was violated, with the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which monitor raised it (`"mutex"`, `"batch"`, `"quorum"`,
    /// `"recovery"`, `"log"`).
    pub monitor: &'static str,
    /// Timestamp of the event that completed the evidence.
    pub ts_ns: u64,
    /// Human-readable description of the violated invariant instance.
    pub detail: String,
}

impl Violation {
    fn json(&self) -> Json {
        Json::obj([
            ("monitor", Json::str(self.monitor)),
            ("ts_ns", Json::Num(self.ts_ns as f64)),
            ("detail", Json::str(&self.detail)),
        ])
    }
}

/// Streams lock events and flags **mutual-exclusion intrusions**: two
/// completed critical-section intervals on different processes that
/// strictly overlap in time.
///
/// An interval opens at `LockAcquired` and closes at the same lane's next
/// `LockReleased`. Only *completed* intervals are compared, so a lane
/// drained late can never produce a false positive — at worst a real
/// overlap goes unflagged until its release event arrives.
#[derive(Debug, Default)]
pub struct MutexMonitor {
    /// Open critical section per process: acquisition timestamp.
    open: IdMap<u32, u64>,
    /// Completed `(pid, start, end)` intervals, oldest first.
    done: Vec<(u32, u64, u64)>,
}

impl MutexMonitor {
    fn observe(&mut self, e: &Event, out: &mut Vec<Violation>) {
        match e.kind {
            EventKind::LockAcquired { .. } => {
                self.open.insert(e.pid.0 as u32, e.ts_ns);
            }
            EventKind::LockReleased => {
                let Some(start) = self.open.remove(&(e.pid.0 as u32)) else {
                    return;
                };
                let (pid, end) = (e.pid.0 as u32, e.ts_ns);
                for &(q, qs, qe) in &self.done {
                    if q != pid && start < qe && qs < end {
                        out.push(Violation {
                            monitor: "mutex",
                            ts_ns: end,
                            detail: format!(
                                "critical sections overlap: p{pid} [{start}, {end}] ∩ \
                                 p{q} [{qs}, {qe}]"
                            ),
                        });
                    }
                }
                if self.done.len() == MUTEX_INTERVALS_KEPT {
                    self.done.remove(0);
                }
                self.done.push((pid, start, end));
            }
            _ => {}
        }
    }
}

/// Streams `BatchCommit` events and flags **duplicate slots**: two
/// committed batches claiming the same `(shard, slot)`. On a correct
/// service exactly one worker (the proposer) reports each decided slot,
/// so a duplicate means two combiners both believe they committed it.
///
/// At [`MonitorBank::finalize`] it additionally flags **gaps**: a shard
/// whose reported slots do not form the contiguous prefix `0..max+1`.
/// The gap check must wait for quiescence (mid-run, a slot's proposer may
/// simply not have drained yet), which is why it is not an online flag.
#[derive(Debug, Default)]
pub struct BatchMonitor {
    /// Per shard: the set of slots reported committed.
    slots: IdMap<u32, IdMap<u64, u32>>,
}

impl BatchMonitor {
    fn observe(&mut self, e: &Event, out: &mut Vec<Violation>) {
        if let EventKind::BatchCommit { shard, slot, .. } = e.kind {
            let pid = e.pid.0 as u32;
            match self.slots.entry(shard).or_default().insert(slot, pid) {
                Some(prev) if prev != pid => out.push(Violation {
                    monitor: "batch",
                    ts_ns: e.ts_ns,
                    detail: format!(
                        "shard {shard} slot {slot} committed twice (p{prev} and p{pid})"
                    ),
                }),
                Some(_) => out.push(Violation {
                    monitor: "batch",
                    ts_ns: e.ts_ns,
                    detail: format!("shard {shard} slot {slot} committed twice by p{pid}"),
                }),
                None => {}
            }
        }
    }

    fn finalize(&self, out: &mut Vec<Violation>) {
        for (&shard, slots) in &self.slots {
            let max = slots.keys().copied().max().unwrap_or(0);
            let missing: Vec<u64> = (0..=max).filter(|s| !slots.contains_key(s)).collect();
            if !missing.is_empty() {
                out.push(Violation {
                    monitor: "batch",
                    ts_ns: 0,
                    detail: format!(
                        "shard {shard} log has gaps: slots {missing:?} of 0..={max} never \
                         reported committed"
                    ),
                });
            }
        }
    }
}

/// Streams `QuorumVersion` events and flags **version regressions**: a
/// client lane whose completed quorum operation on a register returned a
/// version `(ts, wid)` lexicographically *below* one the same lane saw
/// earlier on the same register — the new/old inversion ABD's write-back
/// phase exists to prevent. Per-lane order is exactly what
/// `drain_new` guarantees, so this check needs no cross-lane reasoning.
#[derive(Debug, Default)]
pub struct QuorumMonitor {
    /// Per `(pid, reg)`: the highest `(ts, wid)` observed.
    floor: IdMap<(u32, u64), (u64, u64)>,
}

impl QuorumMonitor {
    fn observe(&mut self, e: &Event, out: &mut Vec<Violation>) {
        if let EventKind::QuorumVersion { reg, ts, wid } = e.kind {
            let key = (e.pid.0 as u32, reg);
            let seen = self.floor.entry(key).or_insert((ts, wid));
            if (ts, wid) < *seen {
                out.push(Violation {
                    monitor: "quorum",
                    ts_ns: e.ts_ns,
                    detail: format!(
                        "p{} register {reg} regressed: saw v{ts}.{wid} after v{}.{}",
                        key.0, seen.0, seen.1
                    ),
                });
            } else {
                *seen = (ts, wid);
            }
        }
    }
}

/// Streams `Recovered` events and flags **non-monotone incarnations**: a
/// process whose recovery section installed an incarnation number not
/// strictly above its previous one — which would mean two incarnations
/// could be alive under the same identity, the failure mode the
/// recoverable-mutex incarnation counter exists to exclude.
#[derive(Debug, Default)]
pub struct RecoveryMonitor {
    /// Per process: the last installed incarnation.
    last: IdMap<u32, u64>,
}

impl RecoveryMonitor {
    fn observe(&mut self, e: &Event, out: &mut Vec<Violation>) {
        if let EventKind::Recovered { incarnation, .. } = e.kind {
            let pid = e.pid.0 as u32;
            if let Some(&prev) = self.last.get(&pid) {
                if incarnation <= prev {
                    out.push(Violation {
                        monitor: "recovery",
                        ts_ns: e.ts_ns,
                        detail: format!(
                            "p{pid} incarnation went {prev} → {incarnation} (not increasing)"
                        ),
                    });
                    return;
                }
            }
            self.last.insert(pid, incarnation);
        }
    }
}

/// Streams replicated-log events and flags **applied-prefix
/// divergence** — the replicated log's core safety property, checked
/// online in three sound, per-lane/order-free ways:
///
/// * **height sequence** — an applier lane must apply heights
///   `0, 1, 2, …` with no skip or swap ([`EventKind::LogApply`] events
///   on one lane arrive in per-lane order, which `drain_new`
///   guarantees). A `CrashRecover` on the lane resets the expectation:
///   the next incarnation resynchronises from the registers and resumes
///   at its recovered frontier, so its first apply may land at any
///   height (and is strict again from there).
/// * **digest agreement** — two lanes applying the same height must
///   report the same chained prefix digest. The digest is
///   order-sensitive, so this is cross-lane prefix equality in an
///   order-free, set-logic form: no lane-arrival interleaving can fake
///   a mismatch.
/// * **winner uniqueness** — [`EventKind::HeightDecide`] is emitted
///   exactly once, by the winning proposer; a height announced twice
///   means two proposers both believe their batch committed there.
#[derive(Debug, Default)]
pub struct LogPrefixMonitor {
    /// Per lane: the next in-order height (`None` = just recovered,
    /// accept any height once).
    expected: IdMap<u32, Option<u64>>,
    /// Per height: the first reported `(digest, lane)`.
    digests: IdMap<u64, (u64, u32)>,
    /// Per height: the winning proposer that announced the decision.
    winners: IdMap<u64, u32>,
}

impl LogPrefixMonitor {
    fn observe(&mut self, e: &Event, out: &mut Vec<Violation>) {
        match e.kind {
            EventKind::LogApply { height, digest } => {
                let pid = e.pid.0 as u32;
                let slot = self.expected.entry(pid).or_insert(Some(0));
                if let Some(exp) = *slot {
                    if height != exp {
                        out.push(Violation {
                            monitor: "log",
                            ts_ns: e.ts_ns,
                            detail: format!(
                                "p{pid} applied height {height} but its next in-order \
                                 height is {exp}"
                            ),
                        });
                    }
                }
                *slot = Some(height + 1);
                match self.digests.entry(height) {
                    std::collections::hash_map::Entry::Occupied(seen) => {
                        let &(first_digest, first_pid) = seen.get();
                        if first_digest != digest {
                            out.push(Violation {
                                monitor: "log",
                                ts_ns: e.ts_ns,
                                detail: format!(
                                    "applied-prefix divergence at height {height}: \
                                     p{pid} digest {digest:#x} ≠ p{first_pid} digest \
                                     {first_digest:#x}"
                                ),
                            });
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert((digest, pid));
                    }
                }
            }
            EventKind::HeightDecide { height, winner, .. } => {
                if let Some(&prev) = self.winners.get(&height) {
                    out.push(Violation {
                        monitor: "log",
                        ts_ns: e.ts_ns,
                        detail: format!(
                            "height {height} decided twice (winner p{prev}, then p{winner})"
                        ),
                    });
                } else {
                    self.winners.insert(height, winner as u32);
                }
            }
            EventKind::CrashRecover { .. } => {
                // The lane's next incarnation replays from the registers
                // and resumes wherever its recovered frontier is.
                self.expected.insert(e.pid.0 as u32, None);
            }
            _ => {}
        }
    }
}

/// All five monitors behind one `observe` call, accumulating violations.
///
/// Feed it every drained event (irrelevant kinds are ignored), call
/// [`MonitorBank::finalize`] once at quiescence for the checks that need
/// the complete stream, then read [`MonitorBank::violations`].
///
/// # Example
///
/// ```
/// use tfr_obs::MonitorBank;
/// use tfr_registers::ProcId;
/// use tfr_telemetry::{Event, EventKind};
///
/// let mut bank = MonitorBank::new();
/// // Two workers both claim (shard 0, slot 3): a combining bug.
/// for pid in [0, 1] {
///     bank.observe(&Event {
///         ts_ns: 10 + pid as u64,
///         pid: ProcId(pid),
///         kind: EventKind::BatchCommit { shard: 0, slot: 3, size: 4 },
///     });
/// }
/// assert!(!bank.clean());
/// assert_eq!(bank.violations()[0].monitor, "batch");
/// ```
#[derive(Debug, Default)]
pub struct MonitorBank {
    mutex: MutexMonitor,
    batch: BatchMonitor,
    quorum: QuorumMonitor,
    recovery: RecoveryMonitor,
    log: LogPrefixMonitor,
    violations: Vec<Violation>,
    finalized: bool,
}

impl MonitorBank {
    /// A bank with every monitor armed and no violations yet.
    pub fn new() -> MonitorBank {
        MonitorBank::default()
    }

    /// Feeds one event to every monitor.
    pub fn observe(&mut self, e: &Event) {
        self.mutex.observe(e, &mut self.violations);
        self.batch.observe(e, &mut self.violations);
        self.quorum.observe(e, &mut self.violations);
        self.recovery.observe(e, &mut self.violations);
        self.log.observe(e, &mut self.violations);
    }

    /// Runs the quiescence-only checks (currently: batch-log gaps).
    /// Idempotent; call after the last event has been observed.
    pub fn finalize(&mut self) {
        if !self.finalized {
            self.finalized = true;
            self.batch.finalize(&mut self.violations);
        }
    }

    /// Every violation flagged so far, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no monitor has flagged anything.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations as a JSON array (for run summaries and CI gates).
    pub fn violations_json(&self) -> Json {
        Json::Arr(self.violations.iter().map(Violation::json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::ProcId;

    fn ev(ts_ns: u64, pid: usize, kind: EventKind) -> Event {
        Event {
            ts_ns,
            pid: ProcId(pid),
            kind,
        }
    }

    #[test]
    fn mutex_overlap_is_flagged_and_disjoint_is_clean() {
        let mut bank = MonitorBank::new();
        // p0 holds [10, 20]; p1 holds [30, 40]: disjoint, clean.
        bank.observe(&ev(10, 0, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(20, 0, EventKind::LockReleased));
        bank.observe(&ev(30, 1, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(40, 1, EventKind::LockReleased));
        assert!(bank.clean());
        // p2 holds [35, 50]: overlaps p1's completed [30, 40].
        bank.observe(&ev(35, 2, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(50, 2, EventKind::LockReleased));
        assert_eq!(bank.violations().len(), 1);
        assert_eq!(bank.violations()[0].monitor, "mutex");
    }

    #[test]
    fn mutex_is_robust_to_lane_arrival_order() {
        // The same overlap, but p2's lane drains first: still exactly one
        // flag (raised when the second interval completes), no false
        // positive from the order change.
        let mut bank = MonitorBank::new();
        bank.observe(&ev(35, 2, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(50, 2, EventKind::LockReleased));
        bank.observe(&ev(30, 1, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(40, 1, EventKind::LockReleased));
        assert_eq!(bank.violations().len(), 1);
    }

    #[test]
    fn touching_intervals_do_not_count_as_overlap() {
        // p0 releases at the very instant p1 acquires: a hand-off, not an
        // intrusion (strict inequality in the check).
        let mut bank = MonitorBank::new();
        bank.observe(&ev(10, 0, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(20, 0, EventKind::LockReleased));
        bank.observe(&ev(20, 1, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(30, 1, EventKind::LockReleased));
        assert!(bank.clean());
    }

    #[test]
    fn duplicate_slot_is_flagged_online_gaps_only_at_finalize() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::BatchCommit {
                shard: 0,
                slot: 0,
                size: 2,
            },
        ));
        bank.observe(&ev(
            2,
            1,
            EventKind::BatchCommit {
                shard: 0,
                slot: 2,
                size: 2,
            },
        ));
        assert!(bank.clean(), "a missing slot 1 is not yet a violation");
        bank.observe(&ev(
            3,
            1,
            EventKind::BatchCommit {
                shard: 0,
                slot: 0,
                size: 1,
            },
        ));
        assert_eq!(bank.violations().len(), 1, "duplicate flags immediately");
        assert!(bank.violations()[0].detail.contains("slot 0"));
        bank.finalize();
        assert_eq!(bank.violations().len(), 2, "the gap flags at finalize");
        assert!(bank.violations()[1].detail.contains("gaps"));
    }

    #[test]
    fn contiguous_per_shard_logs_finalize_clean() {
        let mut bank = MonitorBank::new();
        for shard in 0..3u32 {
            for slot in 0..5u64 {
                let pid = (slot % 2) as usize;
                bank.observe(&ev(
                    slot,
                    pid,
                    EventKind::BatchCommit {
                        shard,
                        slot,
                        size: 1,
                    },
                ));
            }
        }
        bank.finalize();
        assert!(bank.clean());
    }

    #[test]
    fn quorum_regression_on_one_lane_is_flagged() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::QuorumVersion {
                reg: 7,
                ts: 3,
                wid: 1,
            },
        ));
        bank.observe(&ev(
            2,
            0,
            EventKind::QuorumVersion {
                reg: 7,
                ts: 3,
                wid: 2,
            },
        ));
        // A different lane at a lower version is fine (lanes race).
        bank.observe(&ev(
            3,
            1,
            EventKind::QuorumVersion {
                reg: 7,
                ts: 1,
                wid: 1,
            },
        ));
        assert!(bank.clean());
        // The same lane regressing is the ABD inversion.
        bank.observe(&ev(
            4,
            0,
            EventKind::QuorumVersion {
                reg: 7,
                ts: 2,
                wid: 9,
            },
        ));
        assert_eq!(bank.violations().len(), 1);
        assert_eq!(bank.violations()[0].monitor, "quorum");
    }

    #[test]
    fn recovery_incarnations_must_strictly_increase() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::Recovered {
                incarnation: 1,
                repaired: false,
            },
        ));
        bank.observe(&ev(
            2,
            0,
            EventKind::Recovered {
                incarnation: 2,
                repaired: true,
            },
        ));
        bank.observe(&ev(
            3,
            1,
            EventKind::Recovered {
                incarnation: 1,
                repaired: false,
            },
        ));
        assert!(bank.clean(), "per-process counters are independent");
        bank.observe(&ev(
            4,
            0,
            EventKind::Recovered {
                incarnation: 2,
                repaired: false,
            },
        ));
        assert_eq!(bank.violations().len(), 1);
        assert_eq!(bank.violations()[0].monitor, "recovery");
    }

    #[test]
    fn log_out_of_order_apply_is_flagged() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::LogApply {
                height: 0,
                digest: 0xA,
            },
        ));
        bank.observe(&ev(
            2,
            0,
            EventKind::LogApply {
                height: 1,
                digest: 0xB,
            },
        ));
        assert!(bank.clean(), "in-order applies are fine");
        // Lane 1 applies height 1 before height 0: the pipelining bug.
        bank.observe(&ev(
            3,
            1,
            EventKind::LogApply {
                height: 1,
                digest: 0xC,
            },
        ));
        // Both the sequence skip and the digest mismatch at height 1 flag.
        assert_eq!(bank.violations().len(), 2);
        assert!(bank.violations().iter().all(|v| v.monitor == "log"));
        assert!(bank.violations()[1].detail.contains("divergence"));
    }

    #[test]
    fn log_digest_divergence_is_flagged_even_in_order() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::LogApply {
                height: 0,
                digest: 0xA,
            },
        ));
        bank.observe(&ev(
            2,
            1,
            EventKind::LogApply {
                height: 0,
                digest: 0xA,
            },
        ));
        assert!(bank.clean(), "identical digests agree");
        bank.observe(&ev(
            3,
            2,
            EventKind::LogApply {
                height: 0,
                digest: 0xF,
            },
        ));
        assert_eq!(bank.violations().len(), 1);
        assert!(bank.violations()[0]
            .detail
            .contains("divergence at height 0"));
    }

    #[test]
    fn log_lane_recovery_resets_the_height_expectation() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::LogApply {
                height: 0,
                digest: 0xA,
            },
        ));
        bank.observe(&ev(
            2,
            0,
            EventKind::LogApply {
                height: 1,
                digest: 0xB,
            },
        ));
        // p0 crashes and its next incarnation resumes past heights other
        // proposers decided meanwhile (it replayed them from registers).
        bank.observe(&ev(
            3,
            0,
            EventKind::CrashRecover {
                point: "log.propose-batch",
                down_ns: 500,
            },
        ));
        bank.observe(&ev(
            9,
            0,
            EventKind::LogApply {
                height: 5,
                digest: 0xD,
            },
        ));
        bank.observe(&ev(
            10,
            0,
            EventKind::LogApply {
                height: 6,
                digest: 0xE,
            },
        ));
        assert!(bank.clean(), "a recovered lane may resume at any height");
        // …but it is strict again after the resume point.
        bank.observe(&ev(
            11,
            0,
            EventKind::LogApply {
                height: 9,
                digest: 0xF,
            },
        ));
        assert_eq!(bank.violations().len(), 1);
    }

    #[test]
    fn log_double_height_decide_is_flagged() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::HeightDecide {
                height: 3,
                winner: 0,
                size: 2,
            },
        ));
        assert!(bank.clean());
        bank.observe(&ev(
            2,
            1,
            EventKind::HeightDecide {
                height: 3,
                winner: 1,
                size: 1,
            },
        ));
        assert_eq!(bank.violations().len(), 1);
        assert!(bank.violations()[0].detail.contains("decided twice"));
    }

    #[test]
    fn violations_serialize() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::BatchCommit {
                shard: 1,
                slot: 0,
                size: 1,
            },
        ));
        bank.observe(&ev(
            2,
            1,
            EventKind::BatchCommit {
                shard: 1,
                slot: 0,
                size: 1,
            },
        ));
        let json = bank.violations_json().to_string();
        let parsed = Json::parse(&json).expect("violations serialize to valid JSON");
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("monitor").unwrap().as_str().unwrap(), "batch");
    }
}
