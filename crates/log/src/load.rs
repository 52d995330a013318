//! A self-contained SMR load driver: `n` proposing workers and `R`
//! passive replicas over one [`ReplicatedLog`], used by the bench
//! harness, the CI smoke job, and the example.
//!
//! The driver replicates a [`Counter`]: every op is a seeded increment,
//! so the expected final state is just the sum of all generated ops —
//! a one-line convergence oracle on top of the full [`LogAudit`](crate::LogAudit).
//! Replicas poll on a configurable interval; that interval *is* the
//! decision-propagation latency the pipeline window hides, which is
//! what makes the pipelined-vs-sequential speedup visible on the native
//! backend (on a `tfr-net` space the quorum round trips add real
//! latency on top).

use std::sync::Arc;
use std::time::{Duration, Instant};

use tfr_core::universal::Counter;
use tfr_registers::rng::SplitMix64;
use tfr_registers::space::RegisterSpace;
use tfr_registers::ProcId;
use tfr_telemetry::{with_pid, Trace};

use crate::log::{LogConfig, LogReplica, LogWorker, ReplicatedLog};

/// Shape of one SMR load run.
#[derive(Debug, Clone, Copy)]
pub struct SmrConfig {
    /// Proposing workers.
    pub workers: usize,
    /// Passive replicas.
    pub replicas: usize,
    /// Batches each worker commits.
    pub batches_per_worker: usize,
    /// Ops per batch.
    pub batch: usize,
    /// Pipeline window (1 = sequential heights).
    pub window: u64,
    /// The `delay(Δ)` estimate for every height's consensus.
    pub delta: Duration,
    /// Replica poll interval — the modelled propagation latency.
    pub replica_poll: Duration,
    /// Seed for the op generator.
    pub seed: u64,
}

impl SmrConfig {
    /// A small default: 2 workers, 2 replicas, 8 batches of 4 ops each.
    pub fn new(seed: u64) -> SmrConfig {
        SmrConfig {
            workers: 2,
            replicas: 2,
            batches_per_worker: 8,
            batch: 4,
            window: 4,
            delta: Duration::from_micros(10),
            replica_poll: Duration::from_micros(50),
            seed,
        }
    }

    /// Total heights the run will commit.
    pub fn total_heights(&self) -> u64 {
        (self.workers * self.batches_per_worker) as u64
    }

    /// The log shape this run needs.
    pub fn log_config(&self) -> LogConfig {
        LogConfig {
            n: self.workers,
            replicas: self.replicas,
            heights: self.workers * self.batches_per_worker + 1,
            max_batch: self.batch,
            window: self.window,
            delta: self.delta,
        }
    }
}

/// Outcome of one SMR load run.
#[derive(Debug, Clone)]
pub struct SmrReport {
    /// Heights committed (one batch each).
    pub commits: u64,
    /// Ops committed across all heights.
    pub total_ops: u64,
    /// Wall-clock from first proposal to every lane fully applied.
    pub elapsed: Duration,
    /// Every lane (workers and replicas) is an in-order prefix of the
    /// canonical sequence and all full lanes agree.
    pub converged: bool,
    /// Every lane's final counter equals the sum of all generated ops.
    pub state_ok: bool,
    /// First divergence found by the audit, if any.
    pub divergence: Option<String>,
}

impl SmrReport {
    /// Committed heights per second.
    pub fn commits_per_sec(&self) -> f64 {
        self.commits as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Committed ops per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs the full SMR workload over `space`: workers commit seeded
/// counter batches through the log (pipelined up to `cfg.window`),
/// replicas poll and apply, and every lane is audited at the end.
pub fn run_smr<S>(space: Arc<S>, cfg: &SmrConfig, trace: Trace) -> SmrReport
where
    S: RegisterSpace + Send + Sync + 'static,
{
    let log = Arc::new(ReplicatedLog::on(Counter, cfg.log_config(), space).with_trace(trace));
    let total_heights = cfg.total_heights();

    // Pre-generate every batch so the expected total is known up front.
    let mut rng = SplitMix64::new(cfg.seed);
    let batches: Vec<Vec<Vec<u64>>> = (0..cfg.workers)
        .map(|_| {
            (0..cfg.batches_per_worker)
                .map(|_| (0..cfg.batch).map(|_| rng.random_range(1..=100)).collect())
                .collect()
        })
        .collect();
    let expected: u64 = batches.iter().flatten().flatten().sum();

    let start = Instant::now();
    let (lanes, states): (Vec<_>, Vec<_>) = std::thread::scope(|s| {
        let worker_handles: Vec<_> = batches
            .iter()
            .enumerate()
            .map(|(w, my_batches)| {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    with_pid(ProcId(w), || {
                        let mut worker = LogWorker::new(log, ProcId(w));
                        for ops in my_batches {
                            worker.enqueue(ops);
                        }
                        worker.drive();
                        worker.sync_to(total_heights);
                        (worker.applied_log().to_vec(), *worker.state())
                    })
                })
            })
            .collect();
        let replica_handles: Vec<_> = (0..cfg.replicas)
            .map(|rid| {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    let pid = ProcId(cfg.workers + rid);
                    with_pid(pid, || {
                        let mut replica = LogReplica::new(log, rid);
                        while replica.applied_len() < total_heights {
                            if replica.poll() == 0 {
                                std::thread::sleep(cfg.replica_poll);
                            }
                        }
                        (replica.applied_log().to_vec(), *replica.state())
                    })
                })
            })
            .collect();
        worker_handles
            .into_iter()
            .chain(replica_handles)
            .map(|h| h.join().expect("smr lane panicked"))
            .unzip()
    });
    let elapsed = start.elapsed();

    let lane_refs: Vec<&[crate::audit::AppliedEntry]> =
        lanes.iter().map(|l| l.as_slice()).collect();
    let audit = log.audit(&lane_refs);
    let state_ok = states.iter().all(|&s| s == expected);
    SmrReport {
        commits: audit.heights_decided,
        total_ops: audit.total_ops,
        elapsed,
        converged: audit.converged() && audit.heights_decided == total_heights,
        state_ok,
        divergence: audit.divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::space::NativeSpace;

    #[test]
    fn smr_load_converges_on_the_native_backend() {
        let cfg = SmrConfig::new(7);
        let report = run_smr(
            Arc::new(NativeSpace::with_capacity(16_384)),
            &cfg,
            Trace::default(),
        );
        assert_eq!(report.commits, cfg.total_heights());
        assert_eq!(report.total_ops, cfg.total_heights() * cfg.batch as u64);
        assert!(report.converged, "{:?}", report.divergence);
        assert!(report.state_ok);
    }

    #[test]
    fn sequential_window_also_converges() {
        let mut cfg = SmrConfig::new(11);
        cfg.window = 1;
        cfg.batches_per_worker = 4;
        let report = run_smr(
            Arc::new(NativeSpace::with_capacity(16_384)),
            &cfg,
            Trace::default(),
        );
        assert!(report.converged, "{:?}", report.divergence);
        assert!(report.state_ok);
    }
}
