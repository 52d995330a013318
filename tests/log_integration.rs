//! Acceptance for the replicated log: chaos schedules with
//! crash-recoveries landing mid-pipeline (new incarnations resume from
//! the registers, zero divergence over twenty seeds), the same
//! `ReplicatedLog` running unchanged over the quorum backend through a
//! partition, Wing–Gong linearization of counter/queue/renaming
//! histories committed through the log, and the online prefix monitor
//! flagging a reordering applier while it runs.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tfr::chaos::{random_schedule, ScheduleConfig};
use tfr::core::universal::{Counter, FifoQueue, Sequential};
use tfr::linearize::{check_history, CounterModel, QueueModel, Recorder, RenamingModel};
use tfr::log::{
    LogConfig, LogReplica, LogWorker, Renaming, ReorderingApplier, ReplicatedLog, SmrConfig,
};
use tfr::net::{NetConfig, Network};
use tfr::obs::MonitorBank;
use tfr::registers::chaos::{run_as, ChaosSession, Fault, ThreadOutcome};
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
