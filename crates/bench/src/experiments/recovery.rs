//! E21: the crash-recovery stack — recovery-section latency by crash
//! site, the adaptive super-passage cost (quiet vs post-failure vs
//! resynced), and seeded recovery-nemesis schedules with deterministic
//! replay.
//!
//! The recoverable mutex (`tfr_core::mutex::recoverable`) wraps the
//! paper's time-resilient lock in the Golab–Ramaraju crash-recovery
//! model: a process may crash anywhere on the recoverable surface —
//! inside the critical section included — lose its volatile state, and
//! rejoin as a new incarnation that runs a recovery section before
//! contending again. These tables measure what that costs.

use crate::table::{by_id, gate, GateResult};
use crate::Table;
use std::time::Duration;
use tfr_asynclock::{RawLock, RecoverableRawLock};
use tfr_chaos::recovery::run_recovery_chaos;
use tfr_chaos::{random_schedule, MutexChaosConfig, ScheduleConfig};
use tfr_core::mutex::recoverable::RecoverableMutex;
use tfr_registers::chaos::{points, Fault, FaultAction};
use tfr_registers::ProcId;

fn cfg(n: usize, iterations: u64) -> MutexChaosConfig {
    MutexChaosConfig {
        n,
        iterations,
        cs_hold: Duration::from_micros(30),
        ncs_hold: Duration::from_micros(30),
    }
}

/// E21 — see module docs.
pub fn recovery() -> Vec<Table> {
    let delta = Duration::from_micros(100);

    // -----------------------------------------------------------------
    // Table 1: one crash-recover per run, placed at each site of the
    // recoverable crash surface. "repaired" is the recovery section's
    // verdict: only a crash while holding (in the CS or parked on the
    // release point, where the owner stamp is still set) orphans the
    // lock; everywhere else recovery finds nothing to repair.
    // -----------------------------------------------------------------
    let mut t1 = Table::new(
        "E21a",
        "recovery-section latency and repair verdict by crash site (n=4)",
        &[
            "crash site",
            "down (µs)",
            "recoveries",
            "repaired",
            "recovery latency (µs)",
            "max in CS",
        ],
    );
    let sites = [
        (points::WORKLOAD_CS, "workload.cs (holding)"),
        (points::RECOVERABLE_CS, "recoverable.in-cs (holding)"),
        (points::RECOVERABLE_RELEASE, "recoverable.release (holding)"),
        (points::RECOVERABLE_ACQUIRE, "recoverable.acquire (entry)"),
        (points::WORKLOAD_NCS, "workload.ncs (remainder)"),
    ];
    for (point, label) in sites {
        let down = delta * 4;
        let faults = [Fault {
            pid: ProcId(0),
            point,
            nth: 2,
            action: FaultAction::CrashRecover(down),
        }];
        let lock = RecoverableMutex::standard(4, delta);
        let report = run_recovery_chaos(&lock, &cfg(4, 12), &faults, None);
        assert!(!report.mutual_exclusion_violated(), "safety at {label}");
        let repaired = report.recoveries.iter().filter(|r| r.repaired).count();
        let latency_us: Vec<f64> = report
            .recoveries
            .iter()
            .map(|r| r.recovery_latency.as_nanos() as f64 / 1_000.0)
            .collect();
        let mean = latency_us.iter().sum::<f64>() / latency_us.len().max(1) as f64;
        t1.row(vec![
            label.into(),
            (down.as_micros()).to_string(),
            report.recoveries.len().to_string(),
            format!("{repaired}/{}", report.recoveries.len()),
            format!("{mean:.1}"),
            report.max_in_cs.to_string(),
        ]);
    }
    t1.note("Crash while holding ⇒ the recovery section releases the orphaned CS before the");
    t1.note("new incarnation re-contends; crash elsewhere ⇒ recovery is a constant-time no-op.");

    // -----------------------------------------------------------------
    // Table 2: the adaptive super-passage cost, in shared-memory accesses
    // per passage. The failure hint is volatile, the failure counter is
    // persistent: the first passage after some process fails pays an O(n)
    // diagnostic scan of the state ledger, after which the hint resyncs
    // and the cost drops back to the quiet baseline — Dhoked–Mittal-style
    // adaptivity to *recent* failures, not failures ever.
    // -----------------------------------------------------------------
    let mut t2 = Table::new(
        "E21b",
        "super-passage cost in shared accesses: quiet vs first-after-failure vs resynced",
        &[
            "n",
            "quiet passage",
            "after a failure",
            "resynced passage",
            "scan overhead",
        ],
    );
    for n in [2usize, 8, 32] {
        let lock = RecoverableMutex::standard(n, delta);
        // Warm-up passage pays the one-time hint initialization.
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));

        lock.space().reset_counters();
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));
        let quiet = lock.space().accesses();

        // A failure elsewhere: the last process crashes in its CS and
        // recovers, bumping the persistent failure counter.
        lock.lock(ProcId(n - 1));
        lock.recover(ProcId(n - 1));

        lock.space().reset_counters();
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));
        let after = lock.space().accesses();

        lock.space().reset_counters();
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));
        let resynced = lock.space().accesses();

        assert!(after > quiet, "the post-failure scan must be visible");
        assert_eq!(resynced, quiet, "the hint must resync");
        t2.row(vec![
            n.to_string(),
            quiet.to_string(),
            after.to_string(),
            resynced.to_string(),
            format!("+{}", after - quiet),
        ]);
    }
    t2.note("The overhead column is the O(n) state-ledger scan; it is paid once per observed");
    t2.note("failure, not per passage — the resynced column returns to the quiet baseline.");

    // -----------------------------------------------------------------
    // Table 3: seeded recovery-nemesis schedules at n=8, replayed. Every
    // run is a pure function of its seed: the replay column compares the
    // (recoveries, repairs, fired faults) triple across two runs of the
    // same seed — scheduling jitter changes thread interleavings, never
    // the fault schedule or the invariants.
    // -----------------------------------------------------------------
    let mut t3 = Table::new(
        "E21c",
        "seeded recovery chaos at n=8: schedules, repairs, and deterministic replay",
        &[
            "seed",
            "faults",
            "crash-recovers",
            "recoveries",
            "cs repairs",
            "max in CS",
            "replay agrees",
        ],
    );
    for seed in [3u64, 11, 29, 47] {
        let faults = random_schedule(seed, &ScheduleConfig::recoverable_mutex(8, delta));
        let crash_recovers = faults
            .iter()
            .filter(|f| matches!(f.action, FaultAction::CrashRecover(_)))
            .count();
        let run = |faults: &[Fault]| {
            let lock = RecoverableMutex::standard(8, delta);
            run_recovery_chaos(&lock, &cfg(8, 10), faults, None)
        };
        let report = run(&faults);
        assert!(!report.mutual_exclusion_violated(), "seed {seed}");
        let replay_faults = random_schedule(seed, &ScheduleConfig::recoverable_mutex(8, delta));
        assert_eq!(faults, replay_faults, "equal seeds draw equal schedules");
        let replay = run(&replay_faults);
        let agrees = replay.recoveries.len() == report.recoveries.len()
            && replay.cs_repairs() == report.cs_repairs()
            && replay.fired.len() == report.fired.len();
        t3.row(vec![
            seed.to_string(),
            faults.len().to_string(),
            crash_recovers.to_string(),
            report.recoveries.len().to_string(),
            report.cs_repairs().to_string(),
            report.max_in_cs.to_string(),
            agrees.to_string(),
        ]);
    }
    t3.note("Crash-recoveries land inside the CS and out; zero intrusions on every seed is the");
    t3.note("tentpole claim: an orphaned CS is repaired, never stolen and never leaked.");
    vec![t1, t2, t3]
}

/// The gates on E21 (E21a is descriptive; its safety is asserted in the
/// runner).
pub fn gates(tables: &[Table]) -> Vec<GateResult> {
    vec![
        // The adaptivity claim, Dhoked–Mittal's yardstick: a failure
        // costs one O(n) scan exactly once — the passage after it pays,
        // the next one is back at the quiet baseline.
        gate("E21b.failure_costs_one_scan_once", || {
            for row in by_id(tables, "E21b")?.rows_where(&[])? {
                let quiet = row.num("quiet passage")?;
                row.expect(
                    row.num("after a failure")? > quiet,
                    "after a failure > quiet",
                )?;
                row.expect(row.num("resynced passage")? == quiet, "resynced = quiet")?;
            }
            Ok(())
        }),
        gate("E21c.every_seed_replays", || {
            for row in by_id(tables, "E21c")?.rows_where(&[])? {
                row.expect(row.text("replay agrees")? == "true", "replay agrees = true")?;
            }
            Ok(())
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::gates;
    use crate::experiments::testkit::{assert_gates_reject, table, Doctor::*};

    #[test]
    fn every_recovery_gate_rejects_its_mutant() {
        let fixture = [
            table(
                "E21b",
                "n | quiet passage | after a failure | resynced passage",
                &["2 | 14 | 17 | 14", "32 | 14 | 47 | 14"],
            ),
            table("E21c", "seed | replay agrees", &["3 | true", "11 | true"]),
        ];
        assert_gates_reject(
            gates,
            &fixture,
            &[
                (
                    "E21b.failure_costs_one_scan_once",
                    &[
                        Set(1, "after a failure", "14"),
                        Set(0, "resynced passage", "17"),
                        Clear,
                    ],
                ),
                (
                    "E21c.every_seed_replays",
                    &[Set(1, "replay agrees", "false"), Clear],
                ),
            ],
        );
    }
}
