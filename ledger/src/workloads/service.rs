//! `svc_solo`, `svc_contended`, `svc_quorum`: one closed loop over
//! `ObjectService<Counter>`, three ways of using the same layers.
//!
//! Each worker is one client that sends a burst of [`BURST`] operations
//! (`enqueue_burst`), waits for all of them to commit (`drive`), and only
//! then sends the next.

use super::{Mode, Rep, RepFn, Size};
use crate::probe::{self, Tally, TimedSpace, P_COMBINE, P_DELAY, P_ROUND};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tfr_core::universal::Counter;
use tfr_net::{NetConfig, NetControl, Network};
use tfr_registers::chaos::{install_point_observer, run_as};
use tfr_registers::rng::SplitMix64;
use tfr_registers::space::{NativeSpace, RegisterSpace};
use tfr_registers::ProcId;
use tfr_service::{ObjectService, Router, ServiceConfig};

/// Operations per burst: one client request.
const BURST: usize = 16;
/// Keys the operations spread over; every [`HOT_EVERY`]-th goes to key 0.
const KEYS: u64 = 64;
const HOT_EVERY: usize = 16;
/// Mean round trip of the default 10–80 µs links: two one-way delays of
/// 45 µs on average.
const LINK_RTT_US: f64 = 90.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Native,
    Quorum,
}

#[derive(Debug, Clone, Copy)]
struct Shape {
    backend: Backend,
    workers: usize,
    shards: usize,
    bursts_per_worker: usize,
    delta: Duration,
}

/// The generated inputs of one run.
struct Inputs {
    /// `bursts[worker][burst]` is a list of `(key, amount)`.
    bursts: Vec<Vec<Vec<(u64, u64)>>>,
    /// Ground truth: the sum of the amounts sent to each key.
    totals: BTreeMap<u64, u64>,
    capacity_per_shard: usize,
    router_seed: u64,
    net_seed: u64,
}

impl Inputs {
    fn generate(seed: u64, shape: &Shape) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let net_seed = rng.next_u64();
        // The service's default router seed: the split of the 64 keys
        // over the shards is part of the workload's shape, not an input.
        // Seeded, it moved the fuller shard's share, and with it the
        // capacity, the memory and the batch sizes, by ±10 % per seed.
        let router_seed = ServiceConfig::new(shape.shards, shape.workers).router_seed;
        let router = Router::new(shape.shards, router_seed);
        let mut totals = BTreeMap::new();
        let mut shard_ops = vec![0usize; shape.shards];
        let bursts: Vec<Vec<Vec<(u64, u64)>>> = (0..shape.workers)
            .map(|_| {
                (0..shape.bursts_per_worker)
                    .map(|_| {
                        (0..BURST)
                            .map(|i| {
                                let key = if i % HOT_EVERY == 0 {
                                    0
                                } else {
                                    rng.random_range(0..=KEYS - 1)
                                };
                                let amount = rng.random_range(1..=100);
                                *totals.entry(key).or_insert(0) += amount;
                                shard_ops[router.route(key)] += 1;
                                (key, amount)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // One worker's burst on one shard commits as one batch, so bursts
        // bound the slots; with two workers the batch boundaries depend on
        // the race, and only ops per shard is a safe bound.
        let capacity_per_shard = 2 + if shape.workers == 1 && shape.shards == 1 {
            shape.bursts_per_worker
        } else {
            shard_ops.iter().copied().max().unwrap_or(0)
        };
        Inputs {
            bursts,
            totals,
            capacity_per_shard,
            router_seed,
            net_seed,
        }
    }

    fn ops(&self) -> u64 {
        self.bursts.iter().flatten().map(|b| b.len() as u64).sum()
    }
}

/// What a worker thread hands back from its timed region.
struct WorkerOut {
    start: Instant,
    end: Instant,
    done: u64,
    batch_sizes: Vec<usize>,
    tally: Tally,
    enqueue_ns: Vec<u64>,
    drive_ns: Vec<u64>,
    /// Messages and delivery batches the router handled during the
    /// region (quorum backend, worker 0).
    net_delta: (u64, u64),
}

fn net_counts(control: Option<&NetControl>) -> (u64, u64) {
    control.map_or((0, 0), |c| (c.delivered_messages(), c.delivery_batches()))
}

/// One repetition over `space`. `setup_from` is when construction of the
/// system began (before the network boot, on the quorum backend).
fn rep_on<S: RegisterSpace>(
    shape: &Shape,
    inputs: &Inputs,
    space: Arc<S>,
    control: Option<&NetControl>,
    setup_from: Instant,
    mode: Mode,
) -> Rep {
    let spans = mode == Mode::Spans;
    // Against a 250 µs quorum access the point hook costs nothing, so on
    // that backend the spans repetition counts points as well.
    let points = mode == Mode::Points || (spans && shape.backend == Backend::Quorum);
    let mut rep = Rep::default();
    let cfg = ServiceConfig {
        capacity_per_shard: inputs.capacity_per_shard,
        delta: shape.delta,
        router_seed: inputs.router_seed,
        ..ServiceConfig::new(shape.shards, shape.workers)
    };
    let t_new = Instant::now();
    let svc = ObjectService::on(space, || Counter, &cfg);
    let setup_new_s = t_new.elapsed().as_secs_f64();

    let barrier = Barrier::new(shape.workers);
    let observer = points.then(|| install_point_observer(Arc::new(probe::PointTally)));
    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .bursts
            .iter()
            .enumerate()
            .map(|(w, bursts)| {
                let (svc, barrier) = (&svc, &barrier);
                let body = move || {
                    probe::pin_worker(w, shape.workers);
                    let mut worker = svc.worker(ProcId(w));
                    let mut done = 0u64;
                    let (mut enqueue_ns, mut drive_ns) = (Vec::new(), Vec::new());
                    if spans {
                        enqueue_ns.reserve(bursts.len());
                        drive_ns.reserve(bursts.len());
                    }
                    barrier.wait();
                    probe::take_tally();
                    let before = if w == 0 { net_counts(control) } else { (0, 0) };
                    let start = Instant::now();
                    for burst in bursts {
                        if spans {
                            let t0 = Instant::now();
                            worker.enqueue_burst(burst);
                            let t1 = Instant::now();
                            done += worker.drive().len() as u64;
                            let t2 = Instant::now();
                            enqueue_ns.push((t1 - t0).as_nanos() as u64);
                            drive_ns.push((t2 - t1).as_nanos() as u64);
                        } else {
                            worker.enqueue_burst(burst);
                            done += worker.drive().len() as u64;
                        }
                    }
                    let end = Instant::now();
                    let after = if w == 0 { net_counts(control) } else { (0, 0) };
                    WorkerOut {
                        start,
                        end,
                        done,
                        batch_sizes: worker.take_batch_sizes(),
                        tally: probe::take_tally(),
                        enqueue_ns,
                        drive_ns,
                        net_delta: (after.0 - before.0, after.1 - before.1),
                    }
                };
                s.spawn(move || {
                    if points {
                        // Registers the thread so injection points reach
                        // the observer; no fault is ever scheduled.
                        run_as(ProcId(w), body)
                            .completed()
                            .expect("no crash is scheduled")
                    } else {
                        body()
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service worker panicked"))
            .collect()
    });
    drop(observer);

    let start = outs.iter().map(|o| o.start).min().expect("≥ 1 worker");
    let end = outs.iter().map(|o| o.end).max().expect("≥ 1 worker");
    rep.setup_s = (start - setup_from).as_secs_f64();
    rep.timed_s = (end - start).as_secs_f64();
    rep.ops = outs.iter().map(|o| o.done).sum();

    // Output checks: nothing lost, nothing unaudited, every key's total
    // equal to the generated ground truth.
    let t_audit = Instant::now();
    let sent = inputs.ops();
    let answered = rep.ops;
    rep.check(sent, sent.saturating_sub(answered), || {
        format!("{} of {sent} ops got no response", sent - answered)
    });
    let audits = svc.audit();
    let committed: u64 = audits.iter().map(|a| a.total_committed()).sum();
    let incomplete = audits.iter().filter(|a| !a.complete()).count() as u64;
    rep.check(audits.len() as u64, incomplete, || {
        format!("{incomplete} shard audits incomplete")
    });
    rep.check(sent, sent.abs_diff(committed), || {
        format!("audit found {committed} committed ops, {sent} were sent")
    });
    let mut state = BTreeMap::new();
    for shard in 0..svc.shards() {
        state.extend(svc.snapshot(shard));
    }
    let wrong = inputs
        .totals
        .iter()
        .filter(|(k, v)| state.get(k) != Some(v))
        .count()
        + state
            .keys()
            .filter(|k| !inputs.totals.contains_key(k))
            .count();
    rep.check(inputs.totals.len() as u64, wrong as u64, || {
        format!("{wrong} keys differ from the generated totals")
    });
    let audit_s = t_audit.elapsed().as_secs_f64();

    let t_drop = Instant::now();
    drop(svc);
    let teardown_s = t_drop.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    let (mut enqueue_ns, mut drive_ns) = (Vec::new(), Vec::new());
    let (mut thread_ns, mut decisions) = (0u64, 0u64);
    let mut net_delta = (0, 0);
    for o in outs {
        thread_ns += (o.end - o.start).as_nanos() as u64;
        decisions += o.batch_sizes.len() as u64;
        tally.merge(o.tally);
        enqueue_ns.extend(o.enqueue_ns);
        drive_ns.extend(o.drive_ns);
        net_delta = (net_delta.0 + o.net_delta.0, net_delta.1 + o.net_delta.1);
    }
    let per = |a: u64, b: u64| a as f64 / (b as f64).max(1.0);
    // Estimated thread-seconds per operation and thread: the runner
    // turns it into a share of the untraced repetitions' time.
    let per_op_thread = |s: f64| s / rep.ops.max(1) as f64 / shape.workers as f64;
    if points {
        let delay_s = tally.points[P_DELAY] as f64 * shape.delta.as_secs_f64();
        rep.vals.extend([
            (
                "core.combine_win_ratio",
                per(decisions, tally.points[P_COMBINE]),
            ),
            (
                "core.rounds_per_decision",
                per(tally.points[P_ROUND], decisions),
            ),
            (
                "core.delays_per_decision",
                per(tally.points[P_DELAY], decisions),
            ),
            ("core.delay_share_est", per_op_thread(delay_s)),
        ]);
    }
    if spans {
        let op_ns: Vec<u64> = enqueue_ns
            .iter()
            .zip(&drive_ns)
            .map(|(e, d)| e + d)
            .collect();
        let span_ns: u64 = op_ns.iter().sum();
        rep.vals.extend([
            ("trace.span_cover", per(span_ns, thread_ns)),
            ("registers.reads_per_op", per(tally.reads, rep.ops)),
            ("registers.writes_per_op", per(tally.writes, rep.ops)),
            ("core.decisions", decisions as f64),
            ("core.mean_batch", per(rep.ops, decisions)),
            ("core.reg_ops_per_decision", per(tally.reg_ops(), decisions)),
            ("service.bursts", op_ns.len() as f64),
            ("service.setup_new_s", setup_new_s),
            ("service.audit_s", audit_s),
            ("service.teardown_s", teardown_s),
        ]);
        match shape.backend {
            // Native register time is a count priced by a calibrated
            // loop: an estimate.
            Backend::Native => {
                let (read_ns, write_ns) = probe::calibrate_native();
                let reg_s = (tally.reads as f64 * read_ns + tally.writes as f64 * write_ns) / 1e9;
                rep.vals.extend([
                    ("registers.read_ns", read_ns),
                    ("registers.write_ns", write_ns),
                    ("registers.time_share", per_op_thread(reg_s)),
                ]);
            }
            // Quorum register time is measured call by call.
            Backend::Quorum => {
                let reg_ns: u64 = tally.read_ns.iter().chain(&tally.write_ns).sum();
                rep.vals.extend([
                    ("net.reg_ops", tally.reg_ops() as f64),
                    ("net.time_share", per(reg_ns, thread_ns)),
                    ("net.msgs_per_reg_op", per(net_delta.0, tally.reg_ops())),
                    ("net.msgs_per_delivery_batch", per(net_delta.0, net_delta.1)),
                ]);
                rep.samples
                    .extend([("net.read", tally.read_ns), ("net.write", tally.write_ns)]);
            }
        }
        rep.samples.extend([
            ("service.enqueue", enqueue_ns),
            ("service.drive", drive_ns),
            ("op", op_ns),
        ]);
    }
    rep
}

fn make(seed: u64, shape: Shape) -> RepFn {
    // The service allocates its registers chunk by chunk as it goes.
    probe::keep_freed_memory();
    let inputs = Inputs::generate(seed, &shape);
    Box::new(move |mode| {
        let setup_from = Instant::now();
        match shape.backend {
            Backend::Native => {
                let space = NativeSpace::with_capacity(1024);
                if mode == Mode::Spans {
                    let space = Arc::new(TimedSpace::counting(space));
                    rep_on(&shape, &inputs, space, None, setup_from, mode)
                } else {
                    rep_on(&shape, &inputs, Arc::new(space), None, setup_from, mode)
                }
            }
            Backend::Quorum => {
                let net = Arc::new(Network::new(NetConfig::new(1, 3, inputs.net_seed)));
                let boot_s = setup_from.elapsed().as_secs_f64();
                let control = net.control();
                let mut rep = if mode == Mode::Spans {
                    let space = Arc::new(TimedSpace::timing(net.space()));
                    rep_on(&shape, &inputs, space, Some(&control), setup_from, mode)
                } else {
                    let space = Arc::new(net.space());
                    rep_on(&shape, &inputs, space, Some(&control), setup_from, mode)
                };
                // `rep_on` dropped the service and with it the last
                // space: `net` is now the network's only owner.
                let t_down = Instant::now();
                drop(net);
                if mode == Mode::Spans {
                    rep.vals.extend([
                        ("net.boot_s", boot_s),
                        ("net.shutdown_s", t_down.elapsed().as_secs_f64()),
                    ]);
                }
                rep
            }
        }
    })
}

pub fn solo(seed: u64, size: Size) -> RepFn {
    let shape = Shape {
        backend: Backend::Native,
        workers: 1,
        shards: 1,
        bursts_per_worker: match size {
            Size::Full => 62_500,
            Size::Tiny => 40,
        },
        delta: Duration::from_micros(20),
    };
    make(seed, shape)
}

pub fn contended(seed: u64, size: Size) -> RepFn {
    let shape = Shape {
        backend: Backend::Native,
        workers: 2,
        shards: 2,
        bursts_per_worker: match size {
            Size::Full => 3_125,
            Size::Tiny => 30,
        },
        delta: Duration::from_micros(20),
    };
    make(seed, shape)
}

pub fn quorum(seed: u64, size: Size) -> RepFn {
    let shape = Shape {
        backend: Backend::Quorum,
        workers: 1,
        shards: 2,
        bursts_per_worker: match size {
            Size::Full => 8,
            Size::Tiny => 1,
        },
        delta: Duration::from_micros(200),
    };
    make(seed, shape)
}

/// `net.read_us_p50` over the mean link round trip.
pub fn read_over_link_rtt(read_p50_us: f64) -> f64 {
    read_p50_us / LINK_RTT_US
}
