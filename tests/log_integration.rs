//! Acceptance for the replicated log: chaos schedules with
//! crash-recoveries landing mid-pipeline (new incarnations resume from
//! the registers, zero divergence over twenty seeds), the same
//! `ReplicatedLog` running unchanged over the quorum backend through a
//! partition, height ownership (a timely owner keeps its heights, an
//! idle owner's are taken at once, uneven loads leave no hole, a
//! recovered worker never rewrites its predecessor's block), Wing–Gong
//! linearization of counter/queue/renaming histories committed through
//! the log, one batch or a window of them pending per worker, and the
//! online prefix monitor flagging a reordering applier while it runs.
//!
//! The `ownership_` tests are the ones CI repeats in its race hunt.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use tfr::chaos::{random_schedule, ScheduleConfig};
use tfr::core::universal::{Counter, FifoQueue, Sequential};
use tfr::linearize::{check_history, CounterModel, QueueModel, Recorder, RenamingModel};
use tfr::log::{
    LogConfig, LogReplica, LogWorker, Renaming, ReorderingApplier, ReplicatedLog, SmrConfig,
};
use tfr::net::{NetConfig, Network};
use tfr::obs::MonitorBank;
use tfr::registers::chaos::{points, run_as, ChaosSession, Fault, FaultAction, ThreadOutcome};
use tfr::registers::rng::SplitMix64;
use tfr::registers::space::{Access, NativeSpace, RegisterSpace};
use tfr::registers::ProcId;
use tfr::telemetry::{with_pid, DrainCursor, Trace, Tracer};

fn delta() -> Duration {
    Duration::from_micros(100)
}

// ---------------------------------------------------------------------
// Chaos: crash-recoveries mid-pipeline, twenty seeds, zero divergence
// ---------------------------------------------------------------------

const N: usize = 3;
const REPLICAS: usize = 1;
const BATCHES: u64 = 5;

fn chaos_log() -> Arc<ReplicatedLog<Counter>> {
    Arc::new(ReplicatedLog::new(
        Counter,
        LogConfig {
            n: N,
            replicas: REPLICAS,
            heights: 64,
            max_batch: 4,
            window: 2,
            delta: delta(),
        },
    ))
}

/// One applier lane's outcome: the entries it applied and its final
/// counter state.
type LaneResult = (Vec<tfr::log::AppliedEntry>, u64);

/// Drives the standard workload under an installed fault plan: each
/// worker commits [`BATCHES`] tagged batches, restarting as a fresh
/// [`LogWorker::resumed`] incarnation after every recoverable crash
/// (a batch interrupted mid-commit is redone — committing it twice is
/// legal; the invariants below are against what the registers actually
/// hold). After its own batches, every lane keeps replicating until all
/// decided heights are applied everywhere, so the pipeline floor never
/// strands another worker.
fn drive_log_workload(
    log: &Arc<ReplicatedLog<Counter>>,
    faults: &[Fault],
) -> (Vec<LaneResult>, usize) {
    let session = ChaosSession::install(faults);
    let finished = AtomicUsize::new(0);
    let recoveries = AtomicUsize::new(0);
    let lanes: Vec<LaneResult> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for w in 0..N {
            let log = Arc::clone(log);
            let (finished, recoveries) = (&finished, &recoveries);
            handles.push(s.spawn(move || {
                let pid = ProcId(w);
                let progress = AtomicU64::new(0);
                let started = AtomicBool::new(false);
                let counted_done = AtomicBool::new(false);
                loop {
                    let outcome = run_as(pid, || {
                        let mut worker = if started.swap(true, Ordering::SeqCst) {
                            LogWorker::resumed(Arc::clone(&log), pid)
                        } else {
                            LogWorker::new(Arc::clone(&log), pid)
                        };
                        for r in progress.load(Ordering::SeqCst)..BATCHES {
                            worker.enqueue(&[w as u64 * 1000 + r + 1]);
                            worker.drive();
                            progress.store(r + 1, Ordering::SeqCst);
                        }
                        if !counted_done.swap(true, Ordering::SeqCst) {
                            finished.fetch_add(1, Ordering::SeqCst);
                        }
                        // Replicate everyone else's tail: quiescence is
                        // "all workers done and nothing decided beyond
                        // my applied prefix".
                        loop {
                            if !worker.pump() {
                                std::thread::yield_now();
                            }
                            if finished.load(Ordering::SeqCst) == N
                                && log.decision(worker.applied_len()).is_none()
                            {
                                break;
                            }
                        }
                        (worker.applied_log().to_vec(), *worker.state())
                    });
                    match outcome {
                        ThreadOutcome::Completed(lane) => return lane,
                        ThreadOutcome::Crashed => {
                            panic!("log schedules draw no permanent crash-stops")
                        }
                        ThreadOutcome::CrashedRecoverable(down) => {
                            recoveries.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(down);
                        }
                    }
                }
            }));
        }
        for rid in 0..REPLICAS {
            let log = Arc::clone(log);
            let finished = &finished;
            handles.push(s.spawn(move || {
                // Replicas run outside the chaos regime (faults target
                // worker pids); their lane still gates the floor.
                let mut replica = LogReplica::new(Arc::clone(&log), rid);
                loop {
                    if replica.poll() == 0 {
                        std::thread::sleep(Duration::from_micros(20));
                    }
                    if finished.load(Ordering::SeqCst) == N
                        && log.decision(replica.applied_len()).is_none()
                    {
                        break;
                    }
                }
                (replica.applied_log().to_vec(), *replica.state())
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a log chaos lane panicked"))
            .collect()
    });
    drop(session);
    (lanes, recoveries.load(Ordering::SeqCst))
}

/// The acceptance sweep: twenty seeded log schedules with stalls at
/// every timing-sensitive point and crash-recoveries confined to the
/// two log points — and on every seed, every lane applied the identical
/// full prefix, every acknowledged batch is in the log, and every
/// lane's state equals the register ground truth.
#[test]
fn seeded_log_schedules_never_diverge() {
    let mut total_recoveries = 0usize;
    for seed in 0..20u64 {
        let faults = random_schedule(seed, &ScheduleConfig::log(N, delta()));
        let log = chaos_log();
        let (lanes, recoveries) = drive_log_workload(&log, &faults);
        total_recoveries += recoveries;

        let lane_refs: Vec<&[tfr::log::AppliedEntry]> =
            lanes.iter().map(|(l, _)| l.as_slice()).collect();
        let audit = log.audit(&lane_refs);
        assert!(
            audit.converged(),
            "seed {seed}: lanes diverged: {:?}",
            audit.divergence
        );

        // Ground truth from the registers: what actually committed.
        let (truth, _) = log.truth();
        let committed: Vec<u64> = truth
            .iter()
            .flat_map(|e| log.batch(e.height, e.winner))
            .collect();
        let expected: u64 = committed.iter().sum();
        for (lane, (applied, state)) in lanes.iter().enumerate() {
            assert_eq!(
                applied.len(),
                truth.len(),
                "seed {seed}: lane {lane} stopped short of the full prefix"
            );
            assert_eq!(
                *state, expected,
                "seed {seed}: lane {lane} state diverged from the register truth"
            );
        }
        // Every acknowledged batch (the workload only advanced past a
        // batch once `drive` returned) is committed at least once.
        for w in 0..N as u64 {
            for r in 0..BATCHES {
                let tag = w * 1000 + r + 1;
                assert!(
                    committed.contains(&tag),
                    "seed {seed}: worker {w}'s acknowledged batch {r} is missing"
                );
            }
        }
    }
    assert!(
        total_recoveries >= 5,
        "the sweep must exercise mid-pipeline recovery (got {total_recoveries} restarts)"
    );
}

// ---------------------------------------------------------------------
// The same log over the quorum backend, through a partition
// ---------------------------------------------------------------------

/// `run_smr` is generic over the register space: the identical workload
/// that runs on native atomics runs over `tfr-net`'s ABD quorum
/// emulation — while a minority partition opens and heals mid-run,
/// i.e. across live height transitions.
#[test]
fn the_log_survives_a_minority_partition_on_the_quorum_backend() {
    let mut cfg = SmrConfig::new(0xD15C);
    cfg.workers = 2;
    cfg.replicas = 1;
    cfg.batches_per_worker = 4;
    cfg.batch = 2;
    cfg.window = 2;
    let net_cfg = NetConfig::new(cfg.log_config().lanes(), 3, 0x5eed);
    let net = Arc::new(Network::new(net_cfg));
    let control = net.control();
    let space = Arc::new(net.space());

    let report = std::thread::scope(|s| {
        s.spawn(|| {
            // Cut one replica off mid-run — the two-of-three quorum
            // keeps committing — then heal so it catches back up.
            std::thread::sleep(Duration::from_millis(3));
            control.partition_minority(1);
            std::thread::sleep(Duration::from_millis(8));
            control.heal();
        });
        tfr::log::run_smr(space, &cfg, Trace::default())
    });

    assert!(
        report.converged,
        "lanes diverged over the quorum backend: {:?}",
        report.divergence
    );
    assert!(report.state_ok, "replicated state diverged from expected");
    assert_eq!(report.commits, cfg.total_heights(), "batches lost");
}

// ---------------------------------------------------------------------
// Height ownership
// ---------------------------------------------------------------------

/// A log of `n` workers and no replicas.
fn owned_log(n: usize, window: u64, delta: Duration) -> Arc<ReplicatedLog<Counter>> {
    Arc::new(ReplicatedLog::new(
        Counter,
        LogConfig {
            n,
            replicas: 0,
            heights: 32,
            max_batch: 2,
            window,
            delta,
        },
    ))
}

/// Runs `f` on its own thread and fails the test if it has not
/// returned within `limit`: a run left with a hole spins for ever.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|e| panic!("the run did not finish within {limit:?} ({e})"))
}

/// Every worker pumps until `heights` are applied on its lane, so each
/// keeps the floor moving whether or not it proposes.
fn drive_all(workers: Vec<LogWorker<Counter>>, heights: u64) -> Vec<(u64, u64)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                s.spawn(move || {
                    w.drive();
                    w.sync_to(heights);
                    (w.applied_len(), *w.state())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a log worker panicked"))
            .collect()
    })
}

/// A timely owner is never starved: pid 0 stalls before every one of
/// its proposals, for a seeded time far under the takeover bound Δ, and
/// still wins every height it owns. Without ownership the other
/// proposers, not waiting for a publish that had not happened yet,
/// took its heights.
#[test]
fn ownership_a_timely_owner_is_never_starved() {
    const N: usize = 3;
    const BATCHES: u64 = 4;
    let log = owned_log(N, 4, Duration::from_millis(250));
    let mut rng = SplitMix64::new(0x57A2);
    let stalls: Vec<Fault> = (1..=BATCHES)
        .map(|nth| Fault {
            pid: ProcId(0),
            point: points::LOG_PROPOSE,
            nth,
            action: FaultAction::Stall(Duration::from_micros(rng.random_range(1_000..=5_000))),
        })
        .collect();
    let session = ChaosSession::install(&stalls);
    // Every batch is enqueued before any worker runs.
    let mut workers: Vec<LogWorker<Counter>> = (0..N)
        .map(|p| LogWorker::new(Arc::clone(&log), ProcId(p)))
        .collect();
    for (p, w) in workers.iter_mut().enumerate() {
        for b in 0..BATCHES {
            w.enqueue(&[p as u64 * 10 + b + 1]);
        }
    }
    let heights = N as u64 * BATCHES;
    std::thread::scope(|s| {
        for (p, mut w) in workers.into_iter().enumerate() {
            s.spawn(move || {
                run_as(ProcId(p), || {
                    w.drive();
                    w.sync_to(heights);
                })
                .completed()
                .expect("no crash is scheduled")
            });
        }
    });
    assert_eq!(session.injector().fired().len(), BATCHES as usize);
    drop(session);
    let winners: Vec<Option<usize>> = (0..heights).map(|h| log.decision(h)).collect();
    let owners: Vec<Option<usize>> = (0..heights).map(|h| Some(h as usize % N)).collect();
    assert_eq!(winners, owners, "every height is won by its owner");
}

/// An idle owner's heights are taken at once: one of three workers has
/// batches, and with Δ = 10 s its 16 batches commit in well under a
/// second, so it never waited Δ for the two that have none.
#[test]
fn ownership_an_idle_owners_heights_are_taken_at_once() {
    let log = owned_log(3, 4, Duration::from_secs(10));
    let mut workers: Vec<LogWorker<Counter>> = (0..3)
        .map(|p| LogWorker::new(Arc::clone(&log), ProcId(p)))
        .collect();
    for b in 0..16 {
        workers[1].enqueue(&[b + 1]);
    }
    let start = Instant::now();
    let lanes = within(Duration::from_secs(30), move || drive_all(workers, 16));
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "took {:?}: an idle owner's height waited out Δ",
        start.elapsed()
    );
    assert!(lanes.iter().all(|&l| l == (16, (1..=16).sum())));
    assert!((0..16).all(|h| log.decision(h) == Some(1)));
}

/// Uneven loads leave no hole: worker 0 has one batch, worker 1 nine,
/// so worker 1 fills worker 0's heights once it is idle. Every lane
/// reaches height 10 with the whole sum.
#[test]
fn ownership_uneven_loads_leave_no_hole() {
    let log = owned_log(2, 4, Duration::from_micros(100));
    let mut workers: Vec<LogWorker<Counter>> = (0..2)
        .map(|p| LogWorker::new(Arc::clone(&log), ProcId(p)))
        .collect();
    workers[0].enqueue(&[1000]);
    for b in 0..9 {
        workers[1].enqueue(&[b + 1]);
    }
    let lanes = within(Duration::from_secs(60), move || drive_all(workers, 10));
    let sum = 1000 + (1..=9).sum::<u64>();
    assert_eq!(lanes, vec![(10, sum), (10, sum)]);
    let (truth, total_ops) = log.truth();
    assert_eq!((truth.len(), total_ops), (10, 10), "exactly ten heights");
}

/// A recovered worker never rewrites its predecessor's block: pid 0
/// crashes inside its first proposal, after publishing `[9]` at height 0
/// and announcing there; its next incarnation proposes there without
/// publishing, so `[9]` commits at 0 and its own `[4]` exactly once,
/// later.
#[test]
fn ownership_a_recovered_worker_commits_its_predecessors_block() {
    let log = owned_log(2, 2, delta());
    let session = ChaosSession::install(&[Fault {
        pid: ProcId(0),
        point: points::CONSENSUS_ROUND,
        nth: 1,
        action: FaultAction::CrashRecover(Duration::ZERO),
    }]);
    let crashed = run_as(ProcId(0), || {
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        w.enqueue(&[9]);
        w.drive();
    });
    assert!(matches!(crashed, ThreadOutcome::CrashedRecoverable(_)));
    drop(session);
    assert_eq!(log.decision(0), None, "crashed before height 0 decided");
    let mut w = LogWorker::resumed(Arc::clone(&log), ProcId(0));
    w.enqueue(&[4]);
    w.drive();
    assert_eq!(log.decision(0), Some(0));
    assert_eq!(log.batch(0, 0), vec![9], "the predecessor's block stands");
    let (truth, _) = log.truth();
    let fours: Vec<u64> = truth
        .iter()
        .filter(|e| log.batch(e.height, e.winner) == [4])
        .map(|e| e.height)
        .collect();
    assert_eq!(fours, vec![1], "[4] commits exactly once, later");
    assert_eq!(*w.state(), 13);
}

// ---------------------------------------------------------------------
// Register accesses
// ---------------------------------------------------------------------

/// Shared memory that counts its reads and writes; a group reaches them
/// through the default lowering, so every cell of it counts.
#[derive(Default)]
struct CountingSpace {
    cells: NativeSpace,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl RegisterSpace for CountingSpace {
    fn read(&self, index: u64) -> u64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.cells.read(index)
    }
    fn write(&self, index: u64, value: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.cells.write(index, value)
    }
}

/// Shared memory that tapes every group it is handed, as its accesses'
/// cells; `read` and `write` go untaped.
#[derive(Default)]
struct GroupTape {
    cells: NativeSpace,
    groups: Mutex<Vec<Vec<Vec<u64>>>>,
}

impl RegisterSpace for GroupTape {
    fn read(&self, index: u64) -> u64 {
        self.cells.read(index)
    }
    fn write(&self, index: u64, value: u64) {
        self.cells.write(index, value)
    }
    fn access_all(&self, group: &mut [Access<'_>]) {
        let taped = group.iter().map(|a| a.cells().collect()).collect();
        self.groups.lock().unwrap().push(taped);
        self.cells.access_all(group)
    }
}

/// Tier-1's copy of `tfr-log`'s height-space test, through the public
/// API: two workers commit heights 0 and 1 in turn, and every group of
/// each height's decision reaches the parent space whole, in the cells
/// [`tfr::log::Layout::election`] names and in the height's own
/// lines, the probe of `result` and the top pid bit's `decide` as one
/// parent run.
#[test]
fn a_height_election_reaches_the_parent_in_its_own_lines() {
    let tape = Arc::new(GroupTape::default());
    let cfg = LogConfig {
        n: 2,
        replicas: 0,
        heights: 8,
        max_batch: 8,
        window: 4,
        delta: Duration::from_secs(60),
    };
    let log = Arc::new(ReplicatedLog::on(Counter, cfg, Arc::clone(&tape)));
    let layout = log.layout();
    for height in [0, 1] {
        let mut worker = LogWorker::new(Arc::clone(&log), ProcId(height as usize));
        worker.enqueue(&[height + 1]);
        worker.drive();
        let groups = std::mem::take(&mut *tape.groups.lock().unwrap());
        let probe = vec![layout.election(height, 0), layout.election(height, 3)];
        assert!(groups.contains(&vec![probe]), "height {height}: {groups:?}");
        let lines = layout.election(height, 0) / 8..=layout.arena(height, 17) / 8;
        assert!(
            groups
                .iter()
                .flatten()
                .flatten()
                .all(|c| lines.contains(&(c / 8))),
            "height {height}: {groups:?} leaves lines {lines:?}"
        );
    }
}

/// The register accesses of 16 heights, pinned: two workers with 8
/// batches of 1–8 ops each take turns on one thread, each topping its
/// queue up to 4 pending batches and pumping once per turn, as the
/// benchmark's history builder does. Δ is far above the run's length,
/// so no height is taken over and the count is exact. A change of the
/// log's register layout moves indices, never counts.
#[test]
fn log_register_accesses_are_pinned() {
    let space = Arc::new(CountingSpace::default());
    let cfg = LogConfig {
        n: 2,
        replicas: 0,
        heights: 17,
        max_batch: 8,
        window: 4,
        delta: Duration::from_secs(60),
    };
    let log = Arc::new(ReplicatedLog::on(Counter, cfg, Arc::clone(&space)));
    let mut workers: Vec<_> = (0..2)
        .map(|w| LogWorker::new(Arc::clone(&log), ProcId(w)))
        .collect();
    let mut next = [0u64; 2];
    while workers.iter().any(|w| w.applied_len() < 16) {
        for (w, worker) in workers.iter_mut().enumerate() {
            while next[w] < 8 && worker.pending() < 4 {
                let size = 1 + (w as u64 * 3 + next[w] * 5) % 8;
                worker.enqueue(&vec![next[w] + 1; size as usize]);
                next[w] += 1;
            }
            worker.pump();
        }
    }
    let owners: Vec<usize> = log.truth().0.iter().map(|e| e.winner).collect();
    assert_eq!(owners, [0, 1].repeat(8), "every height won by its owner");
    let counts = [&space.reads, &space.writes].map(|c| c.load(Ordering::Relaxed));
    assert_eq!(counts, [431, 204], "reads and writes");
}

// ---------------------------------------------------------------------
// Linearizability through the log
// ---------------------------------------------------------------------

/// Commits each worker's ops through a shared log (one op per batch),
/// recording real-time invoke/response intervals, and returns the
/// history for the checker.
fn record_log_history<T>(object: T, per_worker: Vec<Vec<u64>>) -> tfr::linearize::History
where
    T: Sequential + Send + Sync + 'static,
    T::State: Send,
{
    let n = per_worker.len();
    let cfg = LogConfig {
        n,
        replicas: 0,
        heights: 64,
        max_batch: 1,
        window: 4,
        delta: Duration::from_micros(20),
    };
    let log = Arc::new(ReplicatedLog::new(object, cfg));
    let recorder = Arc::new(Recorder::new(n));
    let finished = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for (w, ops) in per_worker.iter().enumerate() {
            let log = Arc::clone(&log);
            let recorder = Arc::clone(&recorder);
            let finished = &finished;
            s.spawn(move || {
                let pid = ProcId(w);
                let mut worker = LogWorker::new(log.clone(), pid);
                for &op in ops {
                    let token = recorder.invoke(pid, 0, op);
                    worker.enqueue(&[op]);
                    worker.drive();
                    let resps = worker.take_responses();
                    let (committed, resp) = resps[0];
                    assert_eq!(committed, op);
                    recorder.response(pid, 0, token, resp);
                }
                finished.fetch_add(1, Ordering::SeqCst);
                // Keep the lane's floor moving until global quiescence.
                loop {
                    if !worker.pump() {
                        std::thread::yield_now();
                    }
                    if finished.load(Ordering::SeqCst) == n
                        && log.decision(worker.applied_len()).is_none()
                    {
                        break;
                    }
                }
            });
        }
    });
    assert_eq!(recorder.dropped(), 0, "history buffers overflowed");
    recorder.history()
}

/// Like [`record_log_history`], but each worker keeps up to `window`
/// one-op batches pending: the invoke is recorded at `enqueue`, the
/// response when `take_responses` hands it back. Batches pending
/// together may commit out of enqueue order, so a response is matched
/// to the oldest pending invocation of the same op (equal ops are
/// interchangeable: matched oldest first, each still answers inside its
/// own interval, as the log applies heights in order).
fn record_pipelined_log_history<T>(object: T, per_worker: Vec<Vec<u64>>) -> tfr::linearize::History
where
    T: Sequential + Send + Sync + 'static,
    T::State: Send,
{
    let n = per_worker.len();
    let window = 4;
    let cfg = LogConfig {
        n,
        replicas: 0,
        heights: 64,
        max_batch: 1,
        window,
        delta: Duration::from_micros(20),
    };
    let log = Arc::new(ReplicatedLog::new(object, cfg));
    let recorder = Arc::new(Recorder::new(n));
    let finished = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for (w, ops) in per_worker.iter().enumerate() {
            let log = Arc::clone(&log);
            let recorder = Arc::clone(&recorder);
            let finished = &finished;
            s.spawn(move || {
                let pid = ProcId(w);
                let mut worker = LogWorker::new(log.clone(), pid);
                let mut open: VecDeque<(u64, u64)> = VecDeque::new();
                let mut next = 0;
                while next < ops.len() || !open.is_empty() {
                    while next < ops.len() && open.len() < window as usize {
                        let op = ops[next];
                        open.push_back((op, recorder.invoke(pid, 0, op)));
                        worker.enqueue(&[op]);
                        next += 1;
                    }
                    if !worker.pump() {
                        std::thread::yield_now();
                    }
                    for (op, resp) in worker.take_responses() {
                        let i = open
                            .iter()
                            .position(|&(o, _)| o == op)
                            .expect("a response answers a pending op");
                        let (_, token) = open.remove(i).expect("just found");
                        recorder.response(pid, 0, token, resp);
                    }
                }
                finished.fetch_add(1, Ordering::SeqCst);
                loop {
                    if !worker.pump() {
                        std::thread::yield_now();
                    }
                    if finished.load(Ordering::SeqCst) == n
                        && log.decision(worker.applied_len()).is_none()
                    {
                        break;
                    }
                }
            });
        }
    });
    assert_eq!(recorder.dropped(), 0, "history buffers overflowed");
    recorder.history()
}

/// Counter increments from three contending workers linearize: every
/// response is the post-increment total of some legal total order.
#[test]
fn counter_history_through_the_log_linearizes() {
    let per_worker: Vec<Vec<u64>> = (0..3)
        .map(|w| (1..=4).map(|i| w * 10 + i).collect())
        .collect();
    let h = record_log_history(Counter, per_worker);
    assert_eq!(h.completed(), 12);
    check_history(&h, &CounterModel).expect("log-committed counter must linearize");
}

/// Mixed enqueues and dequeues from two workers respect FIFO order
/// under some linearization.
#[test]
fn queue_history_through_the_log_linearizes() {
    let producer: Vec<u64> = (1..=5).map(FifoQueue::enqueue_op).collect();
    let consumer: Vec<u64> = vec![
        FifoQueue::enqueue_op(100),
        FifoQueue::DEQUEUE,
        FifoQueue::DEQUEUE,
        FifoQueue::DEQUEUE,
    ];
    let h = record_log_history(FifoQueue, vec![producer, consumer]);
    assert_eq!(h.completed(), 9);
    check_history(&h, &QueueModel).expect("log-committed queue must linearize");
}

/// Counter increments linearize with a window of them pending per
/// worker.
#[test]
fn ownership_pipelined_counter_history_linearizes() {
    let per_worker: Vec<Vec<u64>> = (0..3)
        .map(|w| (1..=6).map(|i| w * 10 + i).collect())
        .collect();
    let h = record_pipelined_log_history(Counter, per_worker);
    assert_eq!(h.completed(), 18);
    check_history(&h, &CounterModel).expect("pipelined counter must linearize");
}

/// Enqueues and dequeues linearize as a FIFO queue with a window of them
/// pending per worker, repeated dequeues included.
#[test]
fn ownership_pipelined_queue_history_linearizes() {
    let producer: Vec<u64> = (1..=6).map(FifoQueue::enqueue_op).collect();
    let consumer: Vec<u64> = vec![
        FifoQueue::enqueue_op(100),
        FifoQueue::DEQUEUE,
        FifoQueue::DEQUEUE,
        FifoQueue::DEQUEUE,
        FifoQueue::DEQUEUE,
        FifoQueue::enqueue_op(200),
    ];
    let h = record_pipelined_log_history(FifoQueue, vec![producer, consumer]);
    assert_eq!(h.completed(), 12);
    check_history(&h, &QueueModel).expect("pipelined queue must linearize");
}

/// Concurrent acquires through the log hand out distinct names inside
/// the namespace.
#[test]
fn renaming_history_through_the_log_linearizes() {
    let per_worker = vec![vec![0, 0], vec![0, 0], vec![0, 0]];
    let h = record_log_history(Renaming::new(8), per_worker);
    assert_eq!(h.completed(), 6);
    check_history(&h, &RenamingModel { n: 8 })
        .expect("log-committed renaming must hand out distinct names");
}

// ---------------------------------------------------------------------
// The online prefix monitor, against the live mutant
// ---------------------------------------------------------------------

/// The [`ReorderingApplier`] is caught by **both** teeth while the run
/// is still in flight: the online `log` monitor flags the out-of-order
/// apply from the event stream, and the post-hoc register audit rejects
/// the lane — and a clean replica trips neither.
#[test]
fn online_monitor_and_audit_both_catch_the_reordering_applier() {
    let cfg = LogConfig {
        n: 1,
        replicas: 1,
        heights: 32,
        max_batch: 2,
        window: 4,
        delta: Duration::from_micros(10),
    };
    let tracer = Arc::new(Tracer::new(cfg.lanes()));
    let log =
        Arc::new(ReplicatedLog::new(Counter, cfg).with_trace(Trace::attached(Arc::clone(&tracer))));
    let mut bank = MonitorBank::new();
    let mut cursor = DrainCursor::new();
    let mut buf = Vec::new();

    with_pid(ProcId(0), || {
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        let mut bad = ReorderingApplier::new(Arc::clone(&log), 0, 0xBAD5EED);
        for b in 0..10u64 {
            w.enqueue(&[b + 1]);
        }
        let mut i = 0u32;
        while w.pending() > 0 || w.applied_len() < 10 {
            w.pump();
            if i.is_multiple_of(4) {
                bad.poll();
            }
            i += 1;
            // Drain *while running*: this is the online path, not a
            // post-mortem scan.
            tracer.drain_new(&mut cursor, &mut buf);
            for e in buf.drain(..) {
                bank.observe(&e);
            }
        }
        bad.poll();
        assert!(bad.fired(), "the seeded swap must fire");

        tracer.drain_new(&mut cursor, &mut buf);
        for e in buf.drain(..) {
            bank.observe(&e);
        }
        bank.finalize();
        assert!(!bank.clean(), "the monitor must flag the mutant");
        assert!(
            bank.violations().iter().any(|v| v.monitor == "log"),
            "the flag must come from the log prefix monitor: {:?}",
            bank.violations()
        );

        let audit = log.audit(&[w.applied_log(), bad.applied_log()]);
        assert!(!audit.converged(), "the audit must also reject the lane");
        assert!(!audit.in_order, "the defect is an ordering violation");
    });
}

/// The same pipeline with an honest replica stays clean: no false
/// positives from the prefix monitor.
#[test]
fn online_monitor_stays_clean_on_an_honest_run() {
    let cfg = LogConfig {
        n: 1,
        replicas: 1,
        heights: 32,
        max_batch: 2,
        window: 4,
        delta: Duration::from_micros(10),
    };
    let tracer = Arc::new(Tracer::new(cfg.lanes()));
    let log =
        Arc::new(ReplicatedLog::new(Counter, cfg).with_trace(Trace::attached(Arc::clone(&tracer))));
    with_pid(ProcId(0), || {
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        let mut r = LogReplica::new(Arc::clone(&log), 0);
        for b in 0..8u64 {
            w.enqueue(&[b + 1]);
        }
        while w.pending() > 0 || w.applied_len() < 8 {
            w.pump();
            r.poll();
        }
        r.poll();
        let audit = log.audit(&[w.applied_log(), r.applied_log()]);
        assert!(audit.converged());
    });
    let mut bank = MonitorBank::new();
    let mut cursor = DrainCursor::new();
    let mut buf = Vec::new();
    tracer.drain_new(&mut cursor, &mut buf);
    for e in &buf {
        bank.observe(e);
    }
    bank.finalize();
    assert!(bank.clean(), "honest run flagged: {:?}", bank.violations());
}
