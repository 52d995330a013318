//! The load harness: simulated clients, throughput accounting, and
//! linearizability sampling **in the load path**.
//!
//! # Client model
//!
//! [`LoadConfig::clients`] simulated clients are split into contiguous
//! blocks, one block per worker thread. Every client has at most one
//! operation in flight (its round-`j+1` op is only issued after its
//! round-`j` response returned), so recorded program order is real
//! program order — the property the linearizability sampler depends on.
//! Each round, a worker packs one op from each of `burst` clients into a
//! flat-combining burst, announces it, and drives the shard logs.
//!
//! Keys are laid out deterministically: every 16th client addresses one
//! **shared** key (key 0, contended across all workers); the rest cycle
//! through [`LoadConfig::keys_per_worker`] worker-exclusive keys, so a
//! burst always carries same-key dependencies — the access pattern that
//! makes the seeded [`CombinerKind`] mutants observable.
//!
//! # Sampling under load
//!
//! With [`LoadConfig::sampling`] set, every operation on a sampled key is
//! recorded into a [`WindowRecorder`]; a dedicated rotator thread drains
//! bounded windows *while the benchmark runs* and checks quiescent
//! prefixes against the counter model with carried state. The verdict
//! lands in [`SamplingReport`]: the real batcher passes, the mutants are
//! rejected, and the check costs bounded memory at any throughput.
//!
//! # One loop
//!
//! Every [`CombinerKind`] runs through the same service on whatever
//! backend it is given. The seeded mutants are faults in how a worker
//! answers its clients after a real burst committed (see
//! [`crate::mutants`]), so the sampler always judges responses the
//! service actually produced, and the state and log audits read the
//! service's registers.

use crate::keyed::MAX_KEYS;
pub use crate::mutants::CombinerKind;
use crate::mutants::{answer_withheld, reverse_responses_per_key, withhold_first};
use crate::router::Router;
use crate::service::{ObjectService, ServiceConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfr_core::universal::Counter;
use tfr_linearize::models::CounterModel;
use tfr_linearize::window::{Rotation, WindowChecker, WindowRecorder};
use tfr_registers::space::{NativeSpace, RegisterSpace};
use tfr_registers::ProcId;
use tfr_telemetry::{with_pid, Span, Trace};

/// Every `SHARED_CLIENT_EVERY`-th client addresses the shared key 0.
const SHARED_CLIENT_EVERY: usize = 16;

/// Under-load sampling knobs.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Sample keys where `key % sample_every == 0` (plus the shared
    /// key 0). 1 samples everything.
    pub sample_every: u64,
    /// Bounded recorder size: events per worker per bank (2 events per
    /// sampled op).
    pub events_per_process: usize,
    /// Pause between window rotations.
    pub rotate_every: Duration,
    /// How long one rotation waits for worker heartbeats before giving
    /// up (the flip stays armed and is resumed).
    pub rotate_timeout: Duration,
}

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig {
            sample_every: 2,
            events_per_process: 1 << 14,
            rotate_every: Duration::from_millis(2),
            rotate_timeout: Duration::from_millis(250),
        }
    }
}

/// What the under-load sampler saw.
#[derive(Debug, Clone)]
pub struct SamplingReport {
    /// Complete operations drained through windows.
    pub sampled_ops: usize,
    /// Operations actually checked against the model.
    pub ops_checked: usize,
    /// Quiescent segments excised and checked.
    pub segments: usize,
    /// Windows drained (including post-run drains).
    pub windows: usize,
    /// Sampled ops dropped because a recorder bank was full (sampling
    /// loss, not service loss).
    pub dropped: u64,
    /// The first linearizability violation found, if any.
    pub violation: Option<String>,
}

impl SamplingReport {
    /// True when the sampler checked real work and found no violation.
    pub fn passed(&self) -> bool {
        self.violation.is_none() && self.ops_checked > 0
    }
}

/// A load-run configuration. Build with [`LoadConfig::new`] and override
/// fields as needed.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Simulated clients (each with one op in flight).
    pub clients: usize,
    /// Worker threads multiplexing the clients. At most 255.
    pub workers: usize,
    /// Shards the key space is routed over.
    pub shards: usize,
    /// Operations each client issues (its rounds).
    pub ops_per_client: usize,
    /// Worker-exclusive keys each worker's clients cycle through.
    pub keys_per_worker: u64,
    /// Client ops packed into one announce burst.
    pub burst: usize,
    /// Which batcher to drive (real, baseline, or a seeded mutant).
    pub combiner: CombinerKind,
    /// Consensus `delay(Δ)` estimate.
    pub delta: Duration,
    /// Largest batch one combining decision may commit.
    pub max_batch: usize,
    /// Shard log capacity override (default: a safe per-shard op bound).
    pub capacity_per_shard: Option<usize>,
    /// Router seed.
    pub router_seed: u64,
    /// Under-load sampling; `None` runs without a recorder (cleanest
    /// throughput numbers).
    pub sampling: Option<SamplingConfig>,
}

impl LoadConfig {
    /// Defaults tuned for correctness-oriented runs: 4 ops per client,
    /// 5 exclusive keys per worker, bursts of 16, batches of up to 64.
    pub fn new(clients: usize, workers: usize, shards: usize) -> LoadConfig {
        LoadConfig {
            clients,
            workers,
            shards,
            ops_per_client: 4,
            keys_per_worker: 5,
            burst: 16,
            combiner: CombinerKind::FlatCombining,
            delta: Duration::from_micros(20),
            max_batch: 64,
            capacity_per_shard: None,
            router_seed: 0x5eed,
            sampling: None,
        }
    }

    /// Total operations the run issues.
    pub fn total_ops(&self) -> u64 {
        self.clients as u64 * self.ops_per_client as u64
    }

    /// Clients per worker block.
    fn clients_per_worker(&self) -> usize {
        self.clients.div_ceil(self.workers)
    }

    /// The contiguous client block worker `w` drives.
    pub fn worker_clients(&self, w: usize) -> std::ops::Range<usize> {
        let per = self.clients_per_worker();
        (w * per).min(self.clients)..((w + 1) * per).min(self.clients)
    }

    /// The key client `c` addresses — shared key 0 for every 16th
    /// client, a worker-exclusive key otherwise.
    pub fn client_key(&self, c: usize) -> u64 {
        if c.is_multiple_of(SHARED_CLIENT_EVERY) {
            return 0;
        }
        let w = (c / self.clients_per_worker()) as u64;
        let key = 1 + w * self.keys_per_worker + (c as u64 % self.keys_per_worker);
        debug_assert!(key < MAX_KEYS);
        key
    }

    /// The amount client `c` adds in round `j` (1..=8, deterministic,
    /// distinct between clients `c` and `c + keys_per_worker` whenever
    /// `keys_per_worker % 8 != 0` — which keeps the reordering mutant
    /// observable).
    pub fn client_amount(&self, c: usize, j: usize) -> u64 {
        1 + ((c + j) as u64 % 8)
    }

    /// Whether `key`'s operations are recorded by the sampler.
    pub fn sampled(&self, key: u64) -> bool {
        match &self.sampling {
            Some(s) => key.is_multiple_of(s.sample_every),
            None => false,
        }
    }

    /// The ground-truth final totals per key.
    pub fn expected_totals(&self) -> BTreeMap<u64, u64> {
        let mut totals = BTreeMap::new();
        for c in 0..self.clients {
            let key = self.client_key(c);
            for j in 0..self.ops_per_client {
                *totals.entry(key).or_insert(0) += self.client_amount(c, j);
            }
        }
        totals
    }

    fn validate(&self) {
        assert!(self.clients > 0, "at least one client");
        assert!(
            self.workers > 0 && self.workers <= 255,
            "workers must be in 1..=255"
        );
        assert!(self.shards > 0, "at least one shard");
        assert!(self.ops_per_client > 0, "clients must do something");
        assert!(self.keys_per_worker > 0, "at least one key per worker");
        assert!(self.burst > 0, "bursts hold at least one op");
        assert!(
            self.workers as u64 * self.keys_per_worker < MAX_KEYS,
            "key space exceeds the op encoding"
        );
    }
}

/// The outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Which batcher ran.
    pub combiner: CombinerKind,
    /// Config echo: clients, workers, shards.
    pub clients: usize,
    /// Worker threads.
    pub workers: usize,
    /// Shards.
    pub shards: usize,
    /// Operations committed.
    pub ops: u64,
    /// Wall-clock time of the worker phase.
    pub elapsed: Duration,
    /// Committed operations per second.
    pub ops_per_sec: f64,
    /// Batches committed (each = one consensus decision on the real
    /// path).
    pub batches: u64,
    /// Mean committed batch size (`ops / batches`).
    pub mean_batch_size: f64,
    /// Batch-size histogram: `(size, batches of that size)`, ascending.
    pub batch_hist: Vec<(usize, u64)>,
    /// Operations announced but never committed, plus operations
    /// answered without their amount being applied (the lost-op
    /// mutant's victim). 0 for correct batchers.
    pub lost_ops: u64,
    /// Every shard's committed log audited contiguous and complete:
    /// committed == announced for every worker.
    pub audit_complete: bool,
    /// Final per-key totals match the ground-truth workload.
    pub state_ok: bool,
    /// The under-load sampler's report, when sampling was configured.
    pub sampling: Option<SamplingReport>,
}

/// The sampler side-thread state returned at join.
struct SamplerOut {
    checker: WindowChecker<CounterModel>,
    violation: Option<String>,
    windows: usize,
    sampled_ops: usize,
    checked: usize,
}

fn spawn_sampler<'scope, 'env>(
    s: &'scope std::thread::Scope<'scope, 'env>,
    rec: &'env Arc<WindowRecorder>,
    sampling: &'env SamplingConfig,
    stop: &'env AtomicBool,
) -> std::thread::ScopedJoinHandle<'scope, SamplerOut> {
    s.spawn(move || {
        let mut out = SamplerOut {
            checker: WindowChecker::new(CounterModel),
            violation: None,
            windows: 0,
            sampled_ops: 0,
            checked: 0,
        };
        while !stop.load(Ordering::SeqCst) {
            if let Rotation::Window(w) = rec.rotate(sampling.rotate_timeout) {
                out.windows += 1;
                out.sampled_ops += w.ops.len();
                out.checker.ingest(&w);
                if out.violation.is_none() {
                    match out.checker.check_available() {
                        Ok(n) => out.checked += n,
                        Err(e) => out.violation = Some(e.to_string()),
                    }
                }
            }
            std::thread::sleep(sampling.rotate_every);
        }
        out
    })
}

/// Drains the recorder after quiescence and produces the final report.
fn finish_sampling(rec: &WindowRecorder, mut out: SamplerOut) -> SamplingReport {
    let mut empties = 0;
    while empties < 2 {
        match rec.rotate(Duration::from_secs(10)) {
            Rotation::Window(w) => {
                if w.ops.is_empty() {
                    empties += 1;
                } else {
                    empties = 0;
                    out.windows += 1;
                    out.sampled_ops += w.ops.len();
                    out.checker.ingest(&w);
                }
            }
            Rotation::TimedOut => break,
        }
    }
    let (ops_checked, segments) = match out.checker.finalize() {
        Ok(report) => (report.ops_checked, report.segments),
        Err(e) => {
            if out.violation.is_none() {
                out.violation = Some(e.to_string());
            }
            (out.checked, 0)
        }
    };
    SamplingReport {
        sampled_ops: out.sampled_ops,
        ops_checked,
        segments,
        windows: out.windows,
        dropped: rec.dropped(),
        violation: out.violation,
    }
}

fn histogram(mut sizes: Vec<usize>) -> Vec<(usize, u64)> {
    sizes.sort_unstable();
    let mut hist: Vec<(usize, u64)> = Vec::new();
    for s in sizes {
        match hist.last_mut() {
            Some((size, count)) if *size == s => *count += 1,
            _ => hist.push((s, 1)),
        }
    }
    hist
}

/// Runs the configured load against a service over `space`. Every
/// [`CombinerKind`] drives the same service on any backend; the two
/// mutants only change how a worker announces and answers a burst (see
/// [`crate::mutants`]).
pub fn run_load<S: RegisterSpace + 'static>(
    space: Arc<S>,
    cfg: &LoadConfig,
    trace: &Trace,
) -> LoadReport {
    cfg.validate();
    let per_op = cfg.combiner == CombinerKind::PerOp;
    let burst = if per_op { 1 } else { cfg.burst };
    let router = Router::new(cfg.shards, cfg.router_seed);
    // Capacity: every committed batch holds ≥ 1 op, so a shard's op
    // count bounds its slots. The sparse register backend makes a
    // generous bound cheap.
    let capacity = cfg.capacity_per_shard.unwrap_or_else(|| {
        let mut shard_ops = vec![0usize; cfg.shards];
        for c in 0..cfg.clients {
            shard_ops[router.route(cfg.client_key(c))] += cfg.ops_per_client;
        }
        shard_ops.iter().copied().max().unwrap_or(0) + 2
    });
    let scfg = ServiceConfig {
        shards: cfg.shards,
        workers: cfg.workers,
        capacity_per_shard: capacity,
        delta: cfg.delta,
        max_batch: if per_op { 1 } else { cfg.max_batch },
        router_seed: cfg.router_seed,
    };
    let svc = ObjectService::on(space, || Counter, &scfg).with_trace(trace.clone());
    let rec = cfg
        .sampling
        .as_ref()
        .map(|s| Arc::new(WindowRecorder::new(cfg.workers, s.events_per_process)));
    let stop = AtomicBool::new(false);
    let lost_fired = AtomicBool::new(false);

    let (batch_sizes, sampling, elapsed) = std::thread::scope(|s| {
        let sampler = match (&rec, &cfg.sampling) {
            (Some(rec), Some(sampling)) => Some(spawn_sampler(s, rec, sampling, &stop)),
            _ => None,
        };
        let start = Instant::now();
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                let svc = &svc;
                let rec = rec.as_deref();
                let lost_fired = &lost_fired;
                s.spawn(move || {
                    let pid = ProcId(w);
                    with_pid(pid, || {
                        let mut worker = svc.worker(pid);
                        let my_clients = cfg.worker_clients(w);
                        let mut batch: Vec<(u64, u64)> = Vec::with_capacity(burst);
                        let mut tokens = Vec::with_capacity(burst);
                        for j in 0..cfg.ops_per_client {
                            let mut c = my_clients.start;
                            while c < my_clients.end {
                                let hi = (c + burst).min(my_clients.end);
                                batch.clear();
                                tokens.clear();
                                for client in c..hi {
                                    let key = cfg.client_key(client);
                                    let amount = cfg.client_amount(client, j);
                                    tokens.push(rec.and_then(|r| {
                                        cfg.sampled(key).then(|| r.invoke(pid, key, amount))
                                    }));
                                    batch.push((key, amount));
                                }
                                // The lost-op victim: the first sampled
                                // exclusive-key op of round 0 (so its
                                // client has a later op to contradict
                                // the lie), once across all workers.
                                let withheld = if cfg.combiner == CombinerKind::LostOp && j == 0 {
                                    withhold_first(&mut batch, |key| {
                                        key != 0
                                            && cfg.sampled(key)
                                            && !lost_fired.swap(true, Ordering::SeqCst)
                                    })
                                } else {
                                    None
                                };
                                // The root of each burst's causal span
                                // tree: client.op → client.enqueue /
                                // batch.drive → consensus → quorum.*.
                                let (base, mut done) = {
                                    let _op = Span::enter(trace, "client.op");
                                    let base = worker.enqueue_burst(&batch);
                                    (base, worker.drive())
                                };
                                // `done` is this burst in enqueue order:
                                // `done[i]` answers `batch[i]`.
                                debug_assert!(
                                    done.len() == batch.len()
                                        && done.iter().zip(base..).all(|(op, pos)| op.pos == pos)
                                );
                                if cfg.combiner == CombinerKind::Reordering {
                                    reverse_responses_per_key(&mut done);
                                }
                                if let Some(w) = withheld {
                                    answer_withheld(&mut done, w);
                                }
                                if let Some(r) = rec {
                                    for (op, tok) in done.iter().zip(&tokens) {
                                        if let Some(tok) = *tok {
                                            r.response(pid, op.key, tok, op.resp);
                                        }
                                    }
                                    r.heartbeat(pid);
                                }
                                c = hi;
                            }
                        }
                        if let Some(r) = rec {
                            r.finish(pid);
                        }
                        worker.take_batch_sizes()
                    })
                })
            })
            .collect();
        let batch_sizes: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("a load worker panicked"))
            .collect();
        let elapsed = start.elapsed();
        stop.store(true, Ordering::SeqCst);
        let sampling = sampler.map(|h| {
            let out = h.join().expect("the sampler panicked");
            finish_sampling(rec.as_ref().expect("sampler implies recorder"), out)
        });
        (batch_sizes, sampling, elapsed)
    });

    // Ground truth: every shard's log complete, every total exact. A
    // lost-op victim commits as a no-op, so it counts on top of the
    // audit's gap.
    let audits = svc.audit();
    let audit_complete = audits.iter().all(|a| a.complete());
    let lost_ops: u64 = audits
        .iter()
        .map(|a| a.announced.iter().sum::<u64>() - a.committed.iter().sum::<u64>())
        .sum::<u64>()
        + u64::from(lost_fired.load(Ordering::SeqCst));
    let mut actual = BTreeMap::new();
    for shard in 0..svc.shards() {
        actual.extend(svc.snapshot(shard));
    }
    let state_ok = actual == cfg.expected_totals();

    let ops = cfg.total_ops();
    let batches = batch_sizes.len() as u64;
    LoadReport {
        combiner: cfg.combiner,
        clients: cfg.clients,
        workers: cfg.workers,
        shards: cfg.shards,
        ops,
        elapsed,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64().max(1e-9),
        batches,
        mean_batch_size: ops as f64 / (batches as f64).max(1.0),
        batch_hist: histogram(batch_sizes),
        lost_ops,
        audit_complete,
        state_ok,
        sampling,
    }
}

/// [`run_load`] over fresh native shared memory.
pub fn run_load_native(cfg: &LoadConfig, trace: &Trace) -> LoadReport {
    run_load(Arc::new(NativeSpace::with_capacity(1024)), cfg, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampled_cfg(combiner: CombinerKind) -> LoadConfig {
        LoadConfig {
            combiner,
            sampling: Some(SamplingConfig::default()),
            ..LoadConfig::new(64, 2, 2)
        }
    }

    #[test]
    fn flat_combining_passes_the_under_load_sampler() {
        let report = run_load_native(&sampled_cfg(CombinerKind::FlatCombining), &Trace::default());
        assert_eq!(report.ops, 256);
        assert_eq!(report.lost_ops, 0);
        assert!(report.audit_complete);
        assert!(report.state_ok, "totals must match the workload");
        let sampling = report.sampling.expect("sampling was configured");
        assert!(
            sampling.passed(),
            "the real batcher must pass: {:?}",
            sampling.violation
        );
        assert_eq!(sampling.dropped, 0);
        assert!(
            report.mean_batch_size > 1.0,
            "bursts must actually combine (mean {})",
            report.mean_batch_size
        );
    }

    #[test]
    fn per_op_baseline_passes_and_never_batches() {
        let report = run_load_native(&sampled_cfg(CombinerKind::PerOp), &Trace::default());
        assert!(report.sampling.unwrap().passed());
        assert!(report.state_ok);
        assert_eq!(
            report.batches, report.ops,
            "per-op means one decision per op"
        );
        assert_eq!(report.batch_hist, vec![(1, report.ops)]);
    }

    #[test]
    fn sampler_rejects_the_reordering_batcher() {
        let report = run_load_native(&sampled_cfg(CombinerKind::Reordering), &Trace::default());
        // The bug leaves no trace in the final state or the log…
        assert!(report.state_ok, "reordering preserves totals");
        assert!(report.audit_complete);
        assert_eq!(report.lost_ops, 0);
        // …and is caught only by the history check.
        let sampling = report.sampling.expect("sampling was configured");
        assert!(
            sampling.violation.is_some(),
            "crossed responses must be rejected"
        );
    }

    #[test]
    fn sampler_rejects_the_lost_op_batcher() {
        let report = run_load_native(&sampled_cfg(CombinerKind::LostOp), &Trace::default());
        assert_eq!(report.lost_ops, 1, "exactly one seeded victim");
        assert!(report.audit_complete, "the victim commits, as a no-op");
        assert!(!report.state_ok, "the lost amount is missing from state");
        let sampling = report.sampling.expect("sampling was configured");
        assert!(
            sampling.violation.is_some(),
            "the lost update must be rejected"
        );
    }

    #[test]
    fn unsampled_run_reports_throughput_only() {
        let mut cfg = LoadConfig::new(32, 2, 2);
        cfg.ops_per_client = 2;
        let report = run_load_native(&cfg, &Trace::default());
        assert!(report.sampling.is_none());
        assert_eq!(report.ops, 64);
        assert!(report.state_ok);
        assert!(report.ops_per_sec > 0.0);
        let hist_total: u64 = report.batch_hist.iter().map(|&(s, c)| s as u64 * c).sum();
        assert_eq!(hist_total, report.ops, "histogram accounts every op");
    }

    #[test]
    fn workload_is_deterministic() {
        let cfg = LoadConfig::new(48, 3, 2);
        let a = cfg.expected_totals();
        let b = cfg.expected_totals();
        assert_eq!(a, b);
        // Shared key 0 is hit by every 16th client, every round.
        let shared_clients = (0..cfg.clients).step_by(SHARED_CLIENT_EVERY).count();
        assert!(a[&0] >= shared_clients as u64 * cfg.ops_per_client as u64);
        // Worker key ranges are disjoint.
        for w in 0..cfg.workers {
            for c in cfg.worker_clients(w) {
                let key = cfg.client_key(c);
                if key != 0 {
                    let lo = 1 + w as u64 * cfg.keys_per_worker;
                    assert!((lo..lo + cfg.keys_per_worker).contains(&key));
                }
            }
        }
    }
}
