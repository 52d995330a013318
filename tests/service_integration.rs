//! End-to-end acceptance for the sharded object service under chaos:
//! seeded schedules of stalls, permanent crash-stops, and
//! crash-recoveries (confined to the two universal-construction points,
//! where a fresh incarnation provably resynchronises from the registers)
//! against four workers driving flat-combining batches on two shards —
//! with **zero lost operations**: at quiescence every announced op is
//! committed and the shard states equal the register-backed announce
//! ground truth exactly. The same harness drives the service over
//! native registers and over a quorum cluster (`tfr-net`).
//!
//! The under-load linearizability sampler is checked for teeth here too:
//! the load harness's seeded combiner mutants run through the real
//! service, on both backends, and the sampler must reject them while
//! passing the real batcher.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tfr::chaos::{random_schedule, ScheduleConfig};
use tfr::core::universal::Counter;
use tfr::net::{NetConfig, Network};
use tfr::registers::chaos::{points, run_as, ChaosSession, Fault, FaultAction, ThreadOutcome};
use tfr::registers::space::{NativeSpace, RegisterSpace};
use tfr::registers::ProcId;
use tfr::service::{
    decode_op, run_load, run_load_native, CombinerKind, LoadConfig, LoadReport, ObjectService,
    SamplingConfig, ServiceConfig,
};
use tfr::telemetry::Trace;

const N: usize = 4;
const SHARDS: usize = 2;
const ROUNDS: u64 = 6;
const BURST: usize = 4;
const KEYS: u64 = 8;

fn delta() -> Duration {
    Duration::from_micros(100)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        capacity_per_shard: 512,
        delta: delta(),
        max_batch: 8,
        ..ServiceConfig::new(SHARDS, N)
    }
}

fn service() -> ObjectService<Counter> {
    ObjectService::new(|| Counter, &config())
}

/// What one chaos run produced, per worker: incarnation restarts and
/// whether the pid ended crash-stopped for good.
struct RunStats {
    recoveries: usize,
    crashed: Vec<usize>,
}

/// Runs the standard workload under an installed fault plan: each worker
/// drives [`ROUNDS`] bursts of [`BURST`] ops over [`KEYS`] keys,
/// restarting as a new incarnation after every recoverable crash (a
/// round interrupted mid-flight is redone — re-announcing is legal, and
/// the invariant checked afterwards is against what was *actually*
/// announced, not the intended workload).
fn drive_workload<S: RegisterSpace>(svc: &ObjectService<Counter, S>, faults: &[Fault]) -> RunStats {
    let session = ChaosSession::install(faults);
    let stats: Vec<(usize, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|w| {
                s.spawn(move || {
                    let pid = ProcId(w);
                    let progress = AtomicU64::new(0);
                    let mut recoveries = 0usize;
                    loop {
                        let outcome = run_as(pid, || {
                            let mut worker = svc.worker(pid);
                            worker.catch_up();
                            for r in progress.load(Ordering::SeqCst)..ROUNDS {
                                let burst: Vec<(u64, u64)> = (0..BURST)
                                    .map(|i| {
                                        let key = (w as u64 + i as u64 * N as u64) % KEYS;
                                        let amount = 1 + ((w as u64 + r + i as u64) % 4);
                                        (key, amount)
                                    })
                                    .collect();
                                worker.enqueue_burst(&burst);
                                worker.drive();
                                progress.store(r + 1, Ordering::SeqCst);
                            }
                        });
                        match outcome {
                            ThreadOutcome::Completed(()) => return (recoveries, false),
                            ThreadOutcome::Crashed => return (recoveries, true),
                            ThreadOutcome::CrashedRecoverable(down) => {
                                recoveries += 1;
                                std::thread::sleep(down);
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a service chaos worker panicked"))
            .collect()
    });
    drop(session);
    RunStats {
        recoveries: stats.iter().map(|&(r, _)| r).sum(),
        crashed: stats
            .iter()
            .enumerate()
            .filter(|(_, &(_, c))| c)
            .map(|(w, _)| w)
            .collect(),
    }
}

/// Flushes announced-but-uncommitted leftovers (e.g. a crash-stopped
/// worker's final burst) by enqueueing zero-amount ops on every shard
/// from outside the chaos regime — the combiner batches *everyone's*
/// pending ops, so a few flush rounds drain any backlog.
fn flush<S: RegisterSpace>(svc: &ObjectService<Counter, S>) {
    let mut flusher = svc.worker(ProcId(0));
    flusher.catch_up();
    for _ in 0..64 {
        if svc.audit().iter().all(|a| a.complete()) {
            return;
        }
        let one_per_shard: Vec<(u64, u64)> = (0..SHARDS)
            .map(|shard| {
                let key = (0..KEYS)
                    .find(|&k| svc.shard_of(k) == shard)
                    .expect("8 keys over 2 shards hit both");
                (key, 0)
            })
            .collect();
        flusher.enqueue_burst(&one_per_shard);
        flusher.drive();
    }
    panic!("flush did not reach quiescence in 64 rounds");
}

/// Asserts the zero-lost-ops invariant from register ground truth: every
/// shard's log is contiguous and complete (committed == announced for
/// every worker), and the replayed state equals the sum of exactly the
/// announced amounts, per key.
fn assert_nothing_lost<S: RegisterSpace>(svc: &ObjectService<Counter, S>, ctx: &str) {
    let audits = svc.audit();
    for (shard, audit) in audits.iter().enumerate() {
        assert!(audit.contiguous, "{ctx}: shard {shard} log not contiguous");
        assert!(
            audit.complete(),
            "{ctx}: shard {shard} lost ops (committed {:?} != announced {:?})",
            audit.committed,
            audit.announced
        );
        let mut expected = std::collections::BTreeMap::new();
        for p in 0..N {
            for seq in 0..audit.announced[p] {
                let raw = svc
                    .announced_op(shard, p, seq)
                    .unwrap_or_else(|| panic!("{ctx}: announced op {p}/{seq} unreadable"));
                let (key, amount) = decode_op(raw);
                *expected.entry(key).or_insert(0u64) += amount;
            }
        }
        assert_eq!(
            svc.snapshot(shard),
            expected,
            "{ctx}: shard {shard} state diverged from the announce ground truth"
        );
    }
}

/// The acceptance sweep: twenty seeded service schedules, each drawing up
/// to six faults. Zero lost operations on every seed, and — across the
/// sweep — real crash-recovery traffic: incarnations must actually
/// restart at the universal points and resume to a complete log.
#[test]
fn seeded_service_schedules_lose_no_ops() {
    let mut total_recoveries = 0usize;
    let mut total_crashes = 0usize;
    for seed in 0..20u64 {
        let faults = random_schedule(seed, &ScheduleConfig::service(N, delta()));
        let svc = service();
        let stats = drive_workload(&svc, &faults);
        flush(&svc);
        assert_nothing_lost(&svc, &format!("seed {seed}"));
        total_recoveries += stats.recoveries;
        total_crashes += stats.crashed.len();
    }
    assert!(
        total_recoveries >= 5,
        "the sweep must exercise recovery (got {total_recoveries} restarts)"
    );
    assert!(
        total_crashes >= 1,
        "the sweep must include a permanent crash-stop (got {total_crashes})"
    );
}

/// Service schedules are a pure function of their seed, and their
/// crash-recoveries stay confined to the two points a fresh incarnation
/// can resynchronise from.
#[test]
fn service_schedules_replay_and_confine_recoveries() {
    let cfg = ScheduleConfig::service(N, delta());
    assert_eq!(random_schedule(9, &cfg), random_schedule(9, &cfg));
    assert_ne!(random_schedule(9, &cfg), random_schedule(10, &cfg));
    let mut saw_recover = 0usize;
    for seed in 0..200u64 {
        for f in random_schedule(seed, &cfg) {
            if let FaultAction::CrashRecover(down) = f.action {
                saw_recover += 1;
                assert!(
                    f.point == points::UNIVERSAL_ANNOUNCE || f.point == points::UNIVERSAL_COMBINE,
                    "seed {seed}: crash-recover at unsafe point {}",
                    f.point
                );
                assert!(
                    down >= cfg.min_down && down <= cfg.max_down,
                    "seed {seed}: down time {down:?} out of range"
                );
            }
        }
    }
    assert!(
        saw_recover > 100,
        "recover_prob must bite across the sweep (got {saw_recover})"
    );
}

/// A handcrafted plan that *guarantees* recoveries fire mid-protocol:
/// worker 1 dies at its second announce publication, worker 2 at its
/// first, worker 3 at its second combine — all come back as new
/// incarnations, resynchronise their announce counters from the
/// registers and redo the interrupted round.
fn recovery_plan() -> Vec<Fault> {
    vec![
        Fault {
            pid: ProcId(1),
            point: points::UNIVERSAL_ANNOUNCE,
            nth: 2,
            action: FaultAction::CrashRecover(Duration::from_micros(200)),
        },
        Fault {
            pid: ProcId(2),
            point: points::UNIVERSAL_ANNOUNCE,
            nth: 1,
            action: FaultAction::CrashRecover(Duration::from_micros(200)),
        },
        Fault {
            pid: ProcId(3),
            point: points::UNIVERSAL_COMBINE,
            nth: 2,
            action: FaultAction::CrashRecover(Duration::from_micros(150)),
        },
    ]
}

/// Under [`recovery_plan`] the log still ends complete.
#[test]
fn crash_recovered_incarnations_resume_to_a_complete_log() {
    let svc = service();
    let stats = drive_workload(&svc, &recovery_plan());
    flush(&svc);
    assert!(
        stats.recoveries >= 2,
        "both announce-point faults must fire (got {})",
        stats.recoveries
    );
    assert!(
        stats.crashed.is_empty(),
        "no permanent crashes were planned"
    );
    assert_nothing_lost(&svc, "handcrafted recovery plan");
}

/// The recovery scenario over a 3-replica quorum cluster, where owned
/// writes skip ABD's query phase: [`recovery_plan`], then three seeded
/// schedules. A recovered session re-announces into payload cells and
/// republishes its record at its predecessor's offset with one-round
/// stores through the service's one space handle, and still nothing is
/// lost.
#[test]
fn crash_recovered_service_sessions_lose_no_ops_over_quorum_registers() {
    let plans = std::iter::once(recovery_plan()).chain(
        [1u64, 4, 7].map(|seed| random_schedule(seed, &ScheduleConfig::service(N, delta()))),
    );
    let mut recoveries = 0;
    for (plan, faults) in plans.enumerate() {
        let net = Arc::new(Network::new(NetConfig::new(N, 3, 0x5EC0 + plan as u64)));
        let svc = ObjectService::on(Arc::new(net.space()), || Counter, &config());
        recoveries += drive_workload(&svc, &faults).recoveries;
        flush(&svc);
        assert_nothing_lost(&svc, &format!("quorum plan {plan}"));
    }
    assert!(recoveries >= 3, "only {recoveries} incarnations restarted");
}

/// Over quorum registers a worker multiplexes its two busy shards, their
/// groups sharing each step's round. Both shards start combining at the
/// drive's start, shard 0 first: its probe, read when the burst was
/// announced, predates the decision another worker made there, with the
/// caller's op in it. A crash-recovery at the second `UNIVERSAL_COMBINE`
/// visit, shard 1's, stops the multiplexed drive with shard 0's first
/// group not yet sent, surfaces from the worker's `run_as` as a
/// recoverable crash, and after a flush nothing is lost.
#[test]
fn a_crash_inside_a_multiplexed_drive_surfaces_from_the_workers_run_as() {
    let net = Arc::new(Network::new(NetConfig::new(N, 3, 0x4E1F)));
    let svc = ObjectService::on(Arc::new(net.space()), || Counter, &config());
    let key_on = |shard: usize| {
        (0..KEYS)
            .find(|&k| svc.shard_of(k) == shard)
            .expect("a key")
    };
    let down = Duration::from_micros(200);
    let session = ChaosSession::install(&[Fault {
        pid: ProcId(0),
        point: points::UNIVERSAL_COMBINE,
        nth: 2,
        action: FaultAction::CrashRecover(down),
    }]);
    let mut worker = svc.worker(ProcId(0));
    worker.enqueue_burst(&[(key_on(0), 5), (key_on(1), 7)]);
    // Outside `run_as`, so no visits: p1 combines p0's op on shard 0.
    let mut other = svc.worker(ProcId(1));
    other.enqueue(key_on(0), 1);
    assert_eq!(other.drive().len(), 1);
    let outcome = run_as(ProcId(0), || worker.drive());
    assert_eq!(outcome.recoverable_after(), Some(down));
    let fired = session.injector().fired();
    assert_eq!(fired.len(), 1, "{fired:?}");
    drop(session);
    let audits = svc.audit();
    assert!(
        audits[0].complete(),
        "shard 0 was committed before the crash"
    );
    assert!(!audits[1].complete(), "shard 1 crashed before proposing");
    flush(&svc);
    assert_nothing_lost(&svc, "crash inside a multiplexed drive");
}

/// Native memory that tapes every access as `(is_write, index)`.
#[derive(Default)]
struct Taped {
    cells: NativeSpace,
    tape: Mutex<Vec<(bool, u64)>>,
}

impl RegisterSpace for Taped {
    fn read(&self, index: u64) -> u64 {
        self.tape.lock().unwrap().push((false, index));
        self.cells.read(index)
    }
    fn write(&self, index: u64, value: u64) {
        self.tape.lock().unwrap().push((true, index));
        self.cells.write(index, value)
    }
}

/// The accesses, `(is_write, parent index)` in order, of one worker's
/// burst over native memory with two shards of 4 slots: op 0 on shard 0,
/// ops 1 and 2 on shard 1. Recorded before the shards' sessions became
/// machines, when a worker drove its shards one after the other.
const TWO_SHARD_TAPE: [(bool, u64); 30] = [
    // Shard 0 announces: its payload, then its counter with slot 0's probe.
    (true, 12),
    (true, 0),
    (false, 4),
    (false, 52),
    // Shard 1 announces two ops the same way.
    (true, 13),
    (true, 19),
    (true, 1),
    (false, 5),
    (false, 53),
    // Shard 0 decides: the record and the mark, the announcement, and
    // Algorithm 1's `x`, conditional `y`, `x[1, v̄]`, `decide` with `result`.
    (true, 2),
    (true, 8),
    (true, 6),
    (true, 28),
    (true, 148),
    (false, 124),
    (true, 124),
    (false, 172),
    (true, 52),
    (true, 4),
    // Shard 1 decides its two-op batch the same way.
    (true, 3),
    (true, 9),
    (true, 15),
    (true, 7),
    (true, 29),
    (true, 149),
    (false, 125),
    (true, 125),
    (false, 173),
    (true, 53),
    (true, 5),
];

/// Tier-1's copy of `tfr-service`'s tape pin: on native memory a worker
/// serves its busy shards in turn, each session's groups on their own, so
/// a 2-shard burst makes the accesses of [`TWO_SHARD_TAPE`], in its order.
#[test]
fn a_native_two_shard_burst_keeps_its_access_tape() {
    let space = Arc::new(Taped::default());
    let cfg = ServiceConfig {
        capacity_per_shard: 4,
        delta: Duration::from_micros(10),
        ..ServiceConfig::new(2, 1)
    };
    let svc = ObjectService::on(Arc::clone(&space), || Counter, &cfg);
    assert_eq!((svc.shard_of(0), svc.shard_of(2)), (0, 1));
    let mut worker = svc.worker(ProcId(0));
    space.tape.lock().unwrap().clear();
    worker.enqueue_burst(&[(0, 1), (2, 2), (2, 3)]);
    assert_eq!(worker.drive().len(), 3);
    assert_eq!(*space.tape.lock().unwrap(), TWO_SHARD_TAPE);
}

/// Fault-free baseline under the same harness: the workload completes
/// with no restarts, and the intended totals are exactly what the
/// announce ground truth reconstructs (nothing was redone, nothing
/// lost).
#[test]
fn fault_free_service_runs_match_the_intended_workload() {
    let svc = service();
    let stats = drive_workload(&svc, &[]);
    assert_eq!(stats.recoveries, 0);
    assert!(stats.crashed.is_empty());
    flush(&svc);
    assert_nothing_lost(&svc, "fault-free");
    // The intended workload is reconstructible: every worker did all its
    // rounds, once.
    let mut intended = std::collections::BTreeMap::new();
    for w in 0..N {
        for r in 0..ROUNDS {
            for i in 0..BURST {
                let key = (w as u64 + i as u64 * N as u64) % KEYS;
                *intended.entry(key).or_insert(0u64) += 1 + ((w as u64 + r + i as u64) % 4);
            }
        }
    }
    let mut actual = std::collections::BTreeMap::new();
    for shard in 0..SHARDS {
        for (key, total) in svc.snapshot(shard) {
            if total > 0 {
                actual.insert(key, total);
            }
        }
    }
    let intended: std::collections::BTreeMap<u64, u64> =
        intended.into_iter().filter(|&(_, v)| v > 0).collect();
    assert_eq!(actual, intended, "fault-free totals are the workload's");
}

// ---------------------------------------------------------------------
// The under-load sampler against the seeded combiner mutants
// ---------------------------------------------------------------------

/// A small sampled load: 64 clients on 2 workers over 2 shards, every
/// even key sampled.
fn sampled_load(combiner: CombinerKind) -> LoadConfig {
    LoadConfig {
        combiner,
        sampling: Some(SamplingConfig::default()),
        ..LoadConfig::new(64, 2, 2)
    }
}

/// Whether the sampler checked real work and rejected it.
fn rejected(report: &LoadReport) -> bool {
    let sampling = report.sampling.as_ref().expect("sampling was configured");
    sampling.violation.is_some()
}

/// The real batcher passes the sampler with a complete log and exact
/// state, and both mutants are rejected: the reordering one with the
/// state and log audits clean (only the history check sees it), the
/// lost-op one with the state short by exactly one victim.
#[test]
fn sampler_passes_the_real_batcher_and_rejects_both_mutants() {
    let real = run_load_native(
        &sampled_load(CombinerKind::FlatCombining),
        &Trace::default(),
    );
    let sampling = real.sampling.as_ref().expect("sampling was configured");
    assert!(sampling.passed(), "real batcher: {:?}", sampling.violation);
    assert!(real.state_ok && real.audit_complete);
    assert_eq!(real.lost_ops, 0);

    let reordering = run_load_native(&sampled_load(CombinerKind::Reordering), &Trace::default());
    assert!(rejected(&reordering), "crossed responses must be rejected");
    assert!(reordering.state_ok && reordering.audit_complete);
    assert_eq!(reordering.lost_ops, 0);

    let lost_op = run_load_native(&sampled_load(CombinerKind::LostOp), &Trace::default());
    assert!(rejected(&lost_op), "the lost update must be rejected");
    assert!(!lost_op.state_ok, "the victim's amount is missing");
    assert!(lost_op.audit_complete, "the victim commits, as a no-op");
    assert_eq!(lost_op.lost_ops, 1, "exactly one seeded victim");
}

/// The same sampler over a 3-replica quorum cluster: the mutants run
/// through the service on any backend, so the reordering one is
/// rejected there too.
#[test]
fn sampler_judges_the_mutants_over_quorum_registers() {
    let run = |combiner| {
        let cfg = LoadConfig {
            ops_per_client: 2,
            ..sampled_load(combiner)
        };
        let net = Arc::new(Network::new(NetConfig::new(cfg.workers, 3, 0x5A4E)));
        run_load(Arc::new(net.space()), &cfg, &Trace::default())
    };
    let real = run(CombinerKind::FlatCombining);
    let sampling = real.sampling.as_ref().expect("sampling was configured");
    assert!(sampling.passed(), "real batcher: {:?}", sampling.violation);
    assert!(real.state_ok && real.audit_complete);

    let reordering = run(CombinerKind::Reordering);
    assert!(rejected(&reordering), "crossed responses must be rejected");
    assert!(reordering.state_ok && reordering.audit_complete);
}
