//! Linearizability sampling **under load**: bounded windowed recording
//! with periodic excision of checkable segments.
//!
//! The plain [`crate::history::Recorder`] merges at quiescence — fine for
//! a toy run, useless for a service sustaining load for seconds: its
//! buffers would have to hold the whole run, and the checker would get
//! one enormous history. A [`WindowRecorder`] instead keeps **two banks**
//! of bounded per-process single-writer buffers and flips an epoch
//! counter between them: while workers record into the new bank, the
//! rotator drains the old one into a [`Window`] and hands it to a
//! [`WindowChecker`], which excises *quiescent prefixes* and runs
//! Wing–Gong on them incrementally with carried state. Sampling therefore
//! runs in the load path, on the very execution being benchmarked.
//!
//! # Why the windows are sound
//!
//! * Timestamps come from one `SeqCst` atomic clock, exactly as in the
//!   quiescent recorder, so recorded precedence is real-time precedence.
//! * An operation's invoke and response always land in the **same** bank
//!   (the response uses the bank captured in its [`SampleToken`]), so no
//!   operation is split across windows.
//! * A rotation reads a clock **floor** *before* flipping the epoch, then
//!   waits until every live worker has heartbeated past the flip before
//!   draining the old bank. Workers heartbeat only when they have no open
//!   sampled operation, so (a) the drained bank is complete and stable,
//!   and (b) every operation recorded after the flip has
//!   `invoke_ts ≥ floor` — the floor is a true time barrier between the
//!   drained window and everything that comes later.
//! * The [`WindowChecker`] only excises a prefix whose latest response
//!   precedes both every pooled later invoke and the latest floor: no
//!   operation overlaps the cut, so linearizability composes across it —
//!   checking `[prefix with carry-in state]` and `[rest]` separately
//!   accepts exactly the histories a whole-run check would accept.
//!
//! Carrying state across cuts folds the sequential model over the
//! prefix's witness order. For models whose post-state is independent of
//! the witness order (the counter: state is the running total, fixed by
//! the multiset of committed ops) this is exact. For order-sensitive
//! models a different witness could in principle leave a different
//! carry; the checker is then conservative (it may reject a linearizable
//! continuation, never accept a non-linearizable prefix).

use crate::checker::{check_object, NonLinearizable};
use crate::history::Operation;
use crate::lane::{Lane, RawEvent};
use crate::models::SeqSpec;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tfr_registers::ProcId;

/// The receipt for a sampled invocation: pass it to
/// [`WindowRecorder::response`]. Carries the bank the invoke landed in so
/// the response joins it there.
#[derive(Debug, Clone, Copy)]
pub struct SampleToken {
    ts: u64,
    bank: usize,
    recorded: bool,
}

/// One drained window of completed operations.
#[derive(Debug, Clone)]
pub struct Window {
    /// The epoch that was closed (0-based flip count).
    pub epoch: u64,
    /// Clock floor read before the flip: every operation recorded after
    /// this window has `invoke_ts >= floor`.
    pub floor: u64,
    /// The window's completed operations, sorted by invoke timestamp.
    pub ops: Vec<Operation>,
    /// Invokes drained without a matching response (a worker died with
    /// an open sampled op — should be 0 in a healthy run).
    pub incomplete: usize,
}

/// Outcome of a rotation attempt.
#[derive(Debug)]
pub enum Rotation {
    /// The old bank was drained.
    Window(Window),
    /// Some live worker did not heartbeat past the flip within the
    /// timeout; the flip stays armed — call [`WindowRecorder::rotate`]
    /// again to resume waiting.
    TimedOut,
}

/// A bounded, bank-flipping history recorder for sampling linearizability
/// under sustained load. See the module docs for the soundness argument.
///
/// Worker contract (per `pid`, single-writer):
/// * [`invoke`](WindowRecorder::invoke) / [`response`](WindowRecorder::response)
///   from the worker's own thread only;
/// * [`heartbeat`](WindowRecorder::heartbeat) at points with **no open
///   sampled operation** (e.g. between service rounds);
/// * [`finish`](WindowRecorder::finish) once, at worker exit.
pub struct WindowRecorder {
    clock: AtomicU64,
    epoch: AtomicU64,
    banks: [Vec<Lane>; 2],
    /// `heartbeats[p]` = the last epoch worker `p` observed at a safe
    /// point; `u64::MAX` once finished.
    heartbeats: Vec<AtomicU64>,
    dropped: AtomicU64,
    /// An armed-but-unfinished flip: `(old_epoch, floor)`.
    pending_flip: Mutex<Option<(u64, u64)>>,
}

impl std::fmt::Debug for WindowRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowRecorder")
            .field("processes", &self.heartbeats.len())
            .field("epoch", &self.epoch.load(Ordering::SeqCst))
            .field("dropped", &self.dropped.load(Ordering::SeqCst))
            .finish()
    }
}

impl WindowRecorder {
    /// A recorder for `n` workers holding up to `events_per_process`
    /// events (two per operation) per worker *per bank*.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `events_per_process < 2`.
    pub fn new(n: usize, events_per_process: usize) -> WindowRecorder {
        assert!(n > 0, "at least one worker is required");
        assert!(events_per_process >= 2, "a bank must hold one operation");
        WindowRecorder {
            clock: AtomicU64::new(1),
            epoch: AtomicU64::new(0),
            banks: [
                (0..n).map(|_| Lane::new(events_per_process)).collect(),
                (0..n).map(|_| Lane::new(events_per_process)).collect(),
            ],
            heartbeats: (0..n).map(|_| AtomicU64::new(0)).collect(),
            dropped: AtomicU64::new(0),
            pending_flip: Mutex::new(None),
        }
    }

    /// Operations dropped because a worker's bank was full — sampling
    /// loss, not service loss. Size banks (or thin the sampling) so this
    /// stays 0 if full coverage of sampled keys is wanted.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Records a sampled invocation of `op` on object `obj` by `pid`.
    /// Worker-thread only. Reserves room for the response in the same
    /// bank; if the bank is full, the whole operation is skipped (and
    /// counted in [`WindowRecorder::dropped`]).
    pub fn invoke(&self, pid: ProcId, obj: u64, op: u64) -> SampleToken {
        let bank = (self.epoch.load(Ordering::SeqCst) & 1) as usize;
        let buf = &self.banks[bank][pid.0];
        if !buf.has_room(2) {
            self.dropped.fetch_add(1, Ordering::SeqCst);
            return SampleToken {
                ts: 0,
                bank,
                recorded: false,
            };
        }
        let ts = self.clock.fetch_add(1, Ordering::SeqCst);
        buf.push(RawEvent::invoke(ts, obj, op));
        SampleToken {
            ts,
            bank,
            recorded: true,
        }
    }

    /// Records the response of the invocation `token`. Worker-thread
    /// only; must precede the worker's next heartbeat.
    pub fn response(&self, pid: ProcId, obj: u64, token: SampleToken, resp: u64) {
        if !token.recorded {
            return;
        }
        let ts = self.clock.fetch_add(1, Ordering::SeqCst);
        let pushed =
            self.banks[token.bank][pid.0].push(RawEvent::response(ts, obj, token.ts, resp));
        debug_assert!(pushed, "invoke reserved the response slot");
    }

    /// Marks worker `pid` as caught up with the current epoch. Call only
    /// with no open sampled operation.
    pub fn heartbeat(&self, pid: ProcId) {
        let e = self.epoch.load(Ordering::SeqCst);
        self.heartbeats[pid.0].store(e, Ordering::SeqCst);
    }

    /// Marks worker `pid` as finished: it records nothing further and no
    /// rotation waits for it.
    pub fn finish(&self, pid: ProcId) {
        self.heartbeats[pid.0].store(u64::MAX, Ordering::SeqCst);
    }

    /// Flips the epoch and drains the closed bank into a [`Window`],
    /// waiting up to `timeout` for every live worker to heartbeat past
    /// the flip. On [`Rotation::TimedOut`] the flip stays armed and the
    /// next call resumes the same drain.
    ///
    /// Single-rotator: serialized internally; concurrent callers block.
    pub fn rotate(&self, timeout: Duration) -> Rotation {
        let mut pending = self.pending_flip.lock().unwrap_or_else(|e| e.into_inner());
        let (old_epoch, floor) = match *pending {
            Some(armed) => armed,
            None => {
                let e = self.epoch.load(Ordering::SeqCst);
                // The floor is read BEFORE the flip: any op recorded in a
                // later epoch takes its timestamp after observing the
                // flipped epoch, hence after this read — monotonicity of
                // the clock makes its invoke_ts >= floor.
                let floor = self.clock.load(Ordering::SeqCst);
                self.epoch.store(e + 1, Ordering::SeqCst);
                *pending = Some((e, floor));
                (e, floor)
            }
        };
        let deadline = Instant::now() + timeout;
        loop {
            let caught_up = self
                .heartbeats
                .iter()
                .all(|h| h.load(Ordering::SeqCst) > old_epoch);
            if caught_up {
                break;
            }
            if Instant::now() >= deadline {
                return Rotation::TimedOut;
            }
            std::thread::yield_now();
        }
        // Every live worker observed epoch > old_epoch with no open op:
        // the old bank is complete and will not be written again until
        // the epoch wraps back to it — after the reset below, which this
        // same flip ordering makes visible first.
        let bank = (old_epoch & 1) as usize;
        let mut ops = Vec::new();
        let mut incomplete = 0;
        for (pid, buf) in self.banks[bank].iter().enumerate() {
            incomplete += buf.pair_into(ProcId(pid), &mut ops);
            buf.clear();
        }
        ops.retain(|o| o.is_complete());
        ops.sort_by_key(|o| o.invoke_ts);
        *pending = None;
        Rotation::Window(Window {
            epoch: old_epoch,
            floor,
            ops,
            incomplete,
        })
    }
}

/// A [`SeqSpec`] adapter whose initial state is an explicit carry-in —
/// how the [`WindowChecker`] resumes a model mid-history.
#[derive(Debug, Clone)]
pub struct FromState<'m, M: SeqSpec> {
    model: &'m M,
    start: M::State,
}

impl<'m, M: SeqSpec> FromState<'m, M> {
    /// `model`, but starting from `start` instead of `model.initial()`.
    pub fn new(model: &'m M, start: M::State) -> FromState<'m, M> {
        FromState { model, start }
    }
}

impl<M: SeqSpec> SeqSpec for FromState<'_, M> {
    type State = M::State;
    fn initial(&self) -> M::State {
        self.start.clone()
    }
    fn step(&self, state: &M::State, op: u64, resp: u64) -> Option<M::State> {
        self.model.step(state, op, resp)
    }
    fn step_unknown(&self, state: &M::State, op: u64) -> Vec<M::State> {
        self.model.step_unknown(state, op)
    }
    fn describe(&self, op: u64, resp: Option<u64>) -> String {
        self.model.describe(op, resp)
    }
}

/// Summary of an incremental under-load check.
#[derive(Debug, Clone, Default)]
pub struct WindowCheckReport {
    /// Operations checked across all segments and objects.
    pub ops_checked: usize,
    /// Quiescent segments excised and checked.
    pub segments: usize,
    /// Checker configurations explored in total.
    pub configs_explored: usize,
}

/// Incremental Wing–Gong over drained [`Window`]s: pools operations per
/// object, excises quiescent prefixes as they become available, checks
/// them against the model with carried state, and frees their memory —
/// the checker's footprint stays bounded by the overlap structure of the
/// load, not by the run length.
pub struct WindowChecker<M: SeqSpec> {
    model: M,
    pools: BTreeMap<u64, Vec<Operation>>,
    carries: BTreeMap<u64, M::State>,
    latest_floor: u64,
    report: WindowCheckReport,
}

impl<M: SeqSpec> WindowChecker<M> {
    /// An incremental checker against `model`.
    pub fn new(model: M) -> WindowChecker<M> {
        WindowChecker {
            model,
            pools: BTreeMap::new(),
            carries: BTreeMap::new(),
            latest_floor: 0,
            report: WindowCheckReport::default(),
        }
    }

    /// Adds a drained window's operations to the per-object pools.
    pub fn ingest(&mut self, window: &Window) {
        self.latest_floor = self.latest_floor.max(window.floor);
        for op in &window.ops {
            self.pools.entry(op.obj).or_default().push(*op);
        }
    }

    /// Operations pooled but not yet checked (still overlapping the
    /// load's frontier).
    pub fn pooled(&self) -> usize {
        self.pools.values().map(Vec::len).sum()
    }

    /// Excises and checks every available quiescent prefix. Returns the
    /// number of operations checked by this call, or the first failing
    /// object's evidence.
    pub fn check_available(&mut self) -> Result<usize, NonLinearizable> {
        self.cut_and_check(self.latest_floor)
    }

    /// Consumes the checker at quiescence: every pooled operation is
    /// checked (no future invoke can precede them any more).
    pub fn finalize(mut self) -> Result<WindowCheckReport, NonLinearizable> {
        self.cut_and_check(u64::MAX)?;
        debug_assert_eq!(self.pooled(), 0, "a MAX floor cuts everything");
        Ok(self.report)
    }

    fn cut_and_check(&mut self, floor: u64) -> Result<usize, NonLinearizable> {
        let mut checked = 0;
        for (&obj, pool) in self.pools.iter_mut() {
            pool.sort_by_key(|o| o.invoke_ts);
            // The largest prefix whose latest response precedes every
            // remaining pooled invoke AND the floor (= every future
            // invoke): nothing overlaps the cut, so checking the prefix
            // separately is exact.
            let mut cut = 0;
            let mut max_resp = 0u64;
            for i in 0..pool.len() {
                max_resp = max_resp.max(pool[i].resp_ts);
                let next_invoke = pool.get(i + 1).map_or(u64::MAX, |o| o.invoke_ts);
                if max_resp < next_invoke.min(floor) {
                    cut = i + 1;
                }
            }
            if cut == 0 {
                continue;
            }
            let rest = pool.split_off(cut);
            let head = std::mem::replace(pool, rest);
            let carry = self
                .carries
                .get(&obj)
                .cloned()
                .unwrap_or_else(|| self.model.initial());
            let spec = FromState::new(&self.model, carry.clone());
            let object_report = check_object(obj, &head, &spec)?;
            // Fold the model along the witness to carry state across the
            // cut (exact for witness-invariant models like the counter).
            let mut state = carry;
            for &idx in &object_report.order {
                let op = &head[idx];
                state = self
                    .model
                    .step(&state, op.op, op.resp.expect("windows hold completed ops"))
                    .expect("the witness order replays by construction");
            }
            self.carries.insert(obj, state);
            checked += head.len();
            self.report.ops_checked += head.len();
            self.report.segments += 1;
            self.report.configs_explored += object_report.configs_explored;
        }
        self.pools.retain(|_, pool| !pool.is_empty());
        Ok(checked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::CounterModel;
    use std::sync::Arc;

    const T: Duration = Duration::from_secs(5);

    #[test]
    fn ops_stay_within_their_bank_and_windows_drain() {
        let rec = WindowRecorder::new(2, 64);
        let t = rec.invoke(ProcId(0), 1, 5);
        rec.response(ProcId(0), 1, t, 5);
        rec.heartbeat(ProcId(0));
        rec.heartbeat(ProcId(1));
        // Flip: workers heartbeat after the flip to release the drain.
        let handle = {
            std::thread::scope(|s| {
                let rec = &rec;
                let h = s.spawn(move || rec.rotate(T));
                // Heartbeats race the rotator; keep beating until it wins.
                loop {
                    rec.heartbeat(ProcId(0));
                    rec.heartbeat(ProcId(1));
                    if h.is_finished() {
                        break h.join().unwrap();
                    }
                    std::thread::yield_now();
                }
            })
        };
        let Rotation::Window(w) = handle else {
            panic!("rotation should complete");
        };
        assert_eq!(w.epoch, 0);
        assert_eq!(w.ops.len(), 1);
        assert_eq!(w.ops[0].resp, Some(5));
        assert_eq!(w.incomplete, 0);
        assert!(w.floor > w.ops[0].invoke_ts, "floor read after the op");

        // Ops recorded now land in the other bank with invoke_ts >= floor.
        let t2 = rec.invoke(ProcId(0), 1, 7);
        assert!(t2.recorded);
        rec.response(ProcId(0), 1, t2, 12);
        rec.finish(ProcId(0));
        rec.finish(ProcId(1));
        let Rotation::Window(w2) = rec.rotate(T) else {
            panic!("finished workers never block a rotation");
        };
        assert_eq!(w2.ops.len(), 1);
        assert!(w2.ops[0].invoke_ts >= w.floor, "floor is a time barrier");
    }

    #[test]
    fn rotation_times_out_until_workers_catch_up_then_resumes() {
        let rec = WindowRecorder::new(1, 8);
        let t = rec.invoke(ProcId(0), 0, 1);
        rec.response(ProcId(0), 0, t, 1);
        // No heartbeat past the flip yet: the rotation must time out.
        assert!(matches!(
            rec.rotate(Duration::from_millis(10)),
            Rotation::TimedOut
        ));
        // The flip stayed armed; once the worker catches up, the same
        // drain completes.
        rec.heartbeat(ProcId(0));
        let Rotation::Window(w) = rec.rotate(T) else {
            panic!("armed flip should resume");
        };
        assert_eq!(w.epoch, 0);
        assert_eq!(w.ops.len(), 1);
    }

    #[test]
    fn full_bank_drops_whole_ops_and_counts_them() {
        let rec = WindowRecorder::new(1, 2); // room for exactly one op
        let t1 = rec.invoke(ProcId(0), 0, 1);
        rec.response(ProcId(0), 0, t1, 1);
        let t2 = rec.invoke(ProcId(0), 0, 2);
        assert!(!t2.recorded);
        rec.response(ProcId(0), 0, t2, 3); // silently skipped
        assert_eq!(rec.dropped(), 1);
        rec.finish(ProcId(0));
        let Rotation::Window(w) = rec.rotate(T) else {
            panic!()
        };
        assert_eq!(w.ops.len(), 1, "the dropped op never half-appears");
    }

    #[test]
    fn window_checker_carries_state_across_cuts() {
        let mut checker = WindowChecker::new(CounterModel);
        // Window 1: two sequential +1s on key 9 (responses 1, 2).
        let w1 = Window {
            epoch: 0,
            floor: 100,
            ops: vec![
                Operation {
                    pid: ProcId(0),
                    obj: 9,
                    op: 1,
                    resp: Some(1),
                    invoke_ts: 1,
                    resp_ts: 2,
                },
                Operation {
                    pid: ProcId(0),
                    obj: 9,
                    op: 1,
                    resp: Some(2),
                    invoke_ts: 3,
                    resp_ts: 4,
                },
            ],
            incomplete: 0,
        };
        checker.ingest(&w1);
        assert_eq!(checker.check_available().unwrap(), 2);
        assert_eq!(checker.pooled(), 0);
        // Window 2 continues the totals — only correct with carried state.
        let w2 = Window {
            epoch: 1,
            floor: 200,
            ops: vec![Operation {
                pid: ProcId(1),
                obj: 9,
                op: 5,
                resp: Some(7),
                invoke_ts: 101,
                resp_ts: 102,
            }],
            incomplete: 0,
        };
        checker.ingest(&w2);
        let report = checker.finalize().unwrap();
        assert_eq!(report.ops_checked, 3);
        assert_eq!(report.segments, 2);
    }

    #[test]
    fn window_checker_rejects_a_wrong_continuation() {
        let mut checker = WindowChecker::new(CounterModel);
        let w1 = Window {
            epoch: 0,
            floor: 100,
            ops: vec![Operation {
                pid: ProcId(0),
                obj: 0,
                op: 4,
                resp: Some(4),
                invoke_ts: 1,
                resp_ts: 2,
            }],
            incomplete: 0,
        };
        checker.ingest(&w1);
        checker.check_available().unwrap();
        // +1 returning 1 forgets the carried total of 4: must fail.
        let w2 = Window {
            epoch: 1,
            floor: 200,
            ops: vec![Operation {
                pid: ProcId(0),
                obj: 0,
                op: 1,
                resp: Some(1),
                invoke_ts: 101,
                resp_ts: 102,
            }],
            incomplete: 0,
        };
        checker.ingest(&w2);
        let err = checker.finalize().expect_err("lost-update continuation");
        assert_eq!(err.obj, 0);
    }

    #[test]
    fn overlapping_frontier_ops_wait_for_a_quiescent_cut() {
        let mut checker = WindowChecker::new(CounterModel);
        // Two ops overlapping in real time near the frontier (resp_ts
        // beyond the floor is impossible by construction, so emulate an
        // overlap with the *pool*: second op invokes before first ends).
        let w = Window {
            epoch: 0,
            floor: 50,
            ops: vec![
                Operation {
                    pid: ProcId(0),
                    obj: 3,
                    op: 1,
                    resp: Some(1),
                    invoke_ts: 10,
                    resp_ts: 40,
                },
                Operation {
                    pid: ProcId(1),
                    obj: 3,
                    op: 1,
                    resp: Some(2),
                    invoke_ts: 20,
                    resp_ts: 45,
                },
            ],
            incomplete: 0,
        };
        checker.ingest(&w);
        // max resp (45) < floor (50): both excised together, overlap kept
        // inside one segment.
        assert_eq!(checker.check_available().unwrap(), 2);

        // A second batch whose op responded after the current floor must
        // wait (a future op could still precede it)…
        let w2 = Window {
            epoch: 1,
            floor: 60,
            ops: vec![Operation {
                pid: ProcId(0),
                obj: 3,
                op: 1,
                resp: Some(3),
                invoke_ts: 55,
                resp_ts: 70,
            }],
            incomplete: 0,
        };
        checker.ingest(&w2);
        assert_eq!(checker.check_available().unwrap(), 0);
        assert_eq!(checker.pooled(), 1);
        // …until finalize declares quiescence.
        let report = checker.finalize().unwrap();
        assert_eq!(report.ops_checked, 3);
    }

    #[test]
    fn concurrent_workers_with_live_rotation_check_clean() {
        // 4 workers hammer one counter key through the window recorder
        // while a rotator drains windows into an incremental checker.
        let n = 4;
        let rounds = 30;
        let rec = Arc::new(WindowRecorder::new(n, 256));
        let counter = Arc::new(AtomicU64::new(0));
        let mut checker = WindowChecker::new(CounterModel);
        std::thread::scope(|s| {
            for w in 0..n {
                let rec = Arc::clone(&rec);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..rounds {
                        let t = rec.invoke(ProcId(w), 0, 1);
                        let total = counter.fetch_add(1, Ordering::SeqCst) + 1;
                        rec.response(ProcId(w), 0, t, total);
                        rec.heartbeat(ProcId(w));
                    }
                    rec.finish(ProcId(w));
                });
            }
            // Rotator: drain windows while the load runs.
            for _ in 0..8 {
                if let Rotation::Window(win) = rec.rotate(Duration::from_millis(200)) {
                    checker.ingest(&win);
                    checker.check_available().expect("real counter is clean");
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // Final drains after quiescence pick up the stragglers.
        loop {
            match rec.rotate(T) {
                Rotation::Window(win) => {
                    if win.ops.is_empty() {
                        break;
                    }
                    checker.ingest(&win);
                }
                Rotation::TimedOut => panic!("finished workers cannot block"),
            }
        }
        let report = checker.finalize().expect("the shared counter linearizes");
        assert_eq!(report.ops_checked, n * rounds);
        assert_eq!(rec.dropped(), 0);
    }
}
