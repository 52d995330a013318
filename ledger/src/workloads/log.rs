//! `log_pipeline` and `log_resume`: the replicated log written, then
//! recovered.
//!
//! `log_pipeline` is two proposing clients, each keeping at most
//! [`WINDOW`] of its own batches in flight and waiting for commits before
//! sending more. `log_resume` times what a recovered worker pays to
//! rejoin: `LogWorker::resumed` replays the whole decided prefix, so its
//! cost grows with history, not with failures.

use super::{Mode, Rep, RepFn, Size};
use crate::probe::{self, Tally, TimedSpace, P_DELAY, P_PROPOSE, P_ROUND};
use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tfr_core::universal::Counter;
use tfr_log::{AppliedEntry, LogConfig, LogWorker, ReplicatedLog};
use tfr_registers::chaos::{install_point_observer, run_as};
use tfr_registers::rng::SplitMix64;
use tfr_registers::space::{NativeSpace, RegisterSpace};
use tfr_registers::ProcId;

const WORKERS: usize = 2;
/// Operations per batch; one batch commits at one height.
const BATCH: usize = 8;
/// Pipeline window, and each client's own in-flight limit.
const WINDOW: usize = 4;
const DELTA: Duration = Duration::from_micros(10);

/// The generated inputs of one run.
struct Inputs {
    /// `batches[worker][i]` is one batch of counter increments.
    batches: Vec<Vec<Vec<u64>>>,
    /// Ground truth: the sum of every increment.
    sum: u64,
}

impl Inputs {
    fn generate(seed: u64, batches_per_worker: usize) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let batches: Vec<Vec<Vec<u64>>> = (0..WORKERS)
            .map(|_| {
                (0..batches_per_worker)
                    .map(|_| (0..BATCH).map(|_| rng.random_range(1..=100)).collect())
                    .collect()
            })
            .collect();
        let sum = batches.iter().flatten().flatten().sum();
        Inputs { batches, sum }
    }

    fn heights(&self) -> u64 {
        self.batches.iter().map(|b| b.len() as u64).sum()
    }
}

fn new_log<S: RegisterSpace>(
    heights: u64,
    wrap: fn(NativeSpace) -> S,
) -> ReplicatedLog<Counter, S> {
    let cfg = LogConfig {
        n: WORKERS,
        replicas: 0,
        heights: heights as usize + 1,
        max_batch: BATCH,
        window: WINDOW as u64,
        delta: DELTA,
    };
    // `ReplicatedLog::new`'s own pre-allocation: three regions of
    // `heights` strides of `n·max_batch + n` cells, plus slack.
    let cells = 3 * (cfg.heights * (WORKERS * BATCH + WORKERS) + 1024);
    ReplicatedLog::on(
        Counter,
        cfg,
        Arc::new(wrap(NativeSpace::with_capacity(cells))),
    )
}

/// One applier lane's trail and final counter.
type Lane = (Vec<AppliedEntry>, u64);

/// Checks that every lane is a converged prefix of the register truth
/// covering all `heights`, with the generated sum as its state.
fn check_lanes<S: RegisterSpace>(
    rep: &mut Rep,
    log: &ReplicatedLog<Counter, S>,
    lanes: &[&Lane],
    inputs: &Inputs,
) {
    let heights = inputs.heights();
    let trails: Vec<&[AppliedEntry]> = lanes.iter().map(|l| l.0.as_slice()).collect();
    let audit = log.audit(&trails);
    let diverged = !audit.converged() as u64;
    rep.check(1, diverged, || {
        format!("log lanes diverged: {:?}", audit.divergence)
    });
    rep.check(heights, heights.abs_diff(audit.heights_decided), || {
        format!("{} of {heights} heights decided", audit.heights_decided)
    });
    let ops = heights * BATCH as u64;
    rep.check(ops, ops.abs_diff(audit.total_ops), || {
        format!("{} of {ops} ops committed", audit.total_ops)
    });
    let short = lanes.iter().filter(|l| l.0.len() as u64 != heights).count() as u64;
    rep.check(lanes.len() as u64, short, || {
        format!("{short} lanes stopped short of height {heights}")
    });
    let wrong = lanes.iter().filter(|l| l.1 != inputs.sum).count() as u64;
    rep.check(lanes.len() as u64, wrong, || {
        format!("{wrong} lanes hold a state other than {}", inputs.sum)
    });
}

/// Replays the decided prefix as a recovered incarnation of worker 0;
/// returns the seconds it took and the lane it arrived at.
fn resume_once<S: RegisterSpace>(
    log: &Arc<ReplicatedLog<Counter, S>>,
    heights: u64,
) -> (f64, LogWorker<Counter, S>) {
    let t0 = Instant::now();
    let mut worker = LogWorker::resumed(Arc::clone(log), ProcId(0));
    worker.sync_to(heights);
    (t0.elapsed().as_secs_f64(), worker)
}

fn lane_of<S: RegisterSpace>(worker: &LogWorker<Counter, S>) -> Lane {
    (worker.applied_log().to_vec(), *worker.state())
}

struct WorkerOut {
    start: Instant,
    end: Instant,
    lane: Lane,
    responses: u64,
    tally: Tally,
    commit_ns: Vec<u64>,
    pump_ns: Vec<u64>,
    /// Σ of the loop's back-to-back spans.
    span_ns: u64,
    idle_pumps: u64,
}

fn pipeline_rep<S: RegisterSpace>(inputs: &Inputs, wrap: fn(NativeSpace) -> S, mode: Mode) -> Rep {
    let (spans, points) = (mode == Mode::Spans, mode == Mode::Points);
    let mut rep = Rep::default();
    let heights = inputs.heights();
    let setup_from = Instant::now();
    let log = Arc::new(new_log(heights, wrap));
    let setup_new_s = setup_from.elapsed().as_secs_f64();

    let barrier = Barrier::new(WORKERS);
    let observer = points.then(|| install_point_observer(Arc::new(probe::PointTally)));
    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .batches
            .iter()
            .enumerate()
            .map(|(w, batches)| {
                let (log, barrier) = (&log, &barrier);
                let body = move || {
                    probe::pin_worker(w, WORKERS);
                    let mut worker = LogWorker::new(Arc::clone(log), ProcId(w));
                    let mut next = 0;
                    let mut responses = 0u64;
                    let mut sent_at = VecDeque::new();
                    let (mut commit_ns, mut pump_ns) = (Vec::new(), Vec::new());
                    let (mut idle_pumps, mut span_ns) = (0u64, 0u64);
                    barrier.wait();
                    probe::take_tally();
                    let start = Instant::now();
                    // Spans are stamped back to back: sending, pumping,
                    // and receiving or waiting account for the whole loop.
                    let mut stamp = start;
                    while next < batches.len() || worker.pending() > 0 {
                        while next < batches.len() && worker.pending() < WINDOW {
                            worker.enqueue(&batches[next]);
                            next += 1;
                            if spans {
                                sent_at.push_back(Instant::now());
                            }
                        }
                        let progressed = if spans {
                            let t0 = Instant::now();
                            let progressed = worker.pump();
                            let t1 = Instant::now();
                            pump_ns.push((t1 - t0).as_nanos() as u64);
                            // Own batches commit in the order sent, each
                            // answering all its ops at once.
                            let answered = worker.take_responses().len();
                            responses += answered as u64;
                            for _ in 0..answered / BATCH {
                                let sent = sent_at.pop_front().expect("a commit was sent");
                                commit_ns.push((t1 - sent).as_nanos() as u64);
                            }
                            progressed
                        } else {
                            worker.pump()
                        };
                        if !progressed {
                            idle_pumps += 1;
                            std::thread::yield_now();
                        }
                        if spans {
                            let now = Instant::now();
                            span_ns += (now - stamp).as_nanos() as u64;
                            stamp = now;
                        }
                    }
                    worker.sync_to(heights);
                    let end = Instant::now();
                    if spans {
                        span_ns += (end - stamp).as_nanos() as u64;
                    }
                    responses += worker.take_responses().len() as u64;
                    WorkerOut {
                        start,
                        end,
                        lane: lane_of(&worker),
                        responses,
                        tally: probe::take_tally(),
                        commit_ns,
                        pump_ns,
                        span_ns,
                        idle_pumps,
                    }
                };
                s.spawn(move || {
                    if points {
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
            .map(|h| h.join().expect("log worker panicked"))
            .collect()
    });
    drop(observer);

    let start = outs.iter().map(|o| o.start).min().expect("two workers");
    let end = outs.iter().map(|o| o.end).max().expect("two workers");
    rep.setup_s = (start - setup_from).as_secs_f64();
    rep.timed_s = (end - start).as_secs_f64();
    let answered: u64 = outs.iter().map(|o| o.responses).sum();
    rep.ops = answered;
    let sent = heights * BATCH as u64;
    rep.check(sent, sent.saturating_sub(answered), || {
        format!("{} of {sent} ops got no response", sent - answered)
    });

    // The write-then-recover use of the same layer: a recovered worker
    // must arrive at the same state as the lanes that never stopped.
    let t_audit = Instant::now();
    let (resume_s, resumed) = resume_once(&log, heights);
    let resumed = lane_of(&resumed);
    let mut lanes: Vec<&Lane> = outs.iter().map(|o| &o.lane).collect();
    lanes.push(&resumed);
    check_lanes(&mut rep, &log, &lanes, inputs);
    let audit_s = t_audit.elapsed().as_secs_f64() - resume_s;

    let mut tally = Tally::default();
    let (mut commit_ns, mut pump_ns) = (Vec::new(), Vec::new());
    let (mut thread_ns, mut span_ns, mut idle_pumps) = (0u64, 0u64, 0u64);
    for o in outs {
        thread_ns += (o.end - o.start).as_nanos() as u64;
        span_ns += o.span_ns;
        idle_pumps += o.idle_pumps;
        tally.merge(o.tally);
        commit_ns.extend(o.commit_ns);
        pump_ns.extend(o.pump_ns);
    }
    let per = |a: u64, b: u64| a as f64 / (b as f64).max(1.0);
    // Estimated thread-seconds per operation and thread: the runner
    // turns it into a share of the untraced repetitions' time.
    let per_op_thread = |s: f64| s / rep.ops.max(1) as f64 / WORKERS as f64;
    if points {
        let delay_s = tally.points[P_DELAY] as f64 * DELTA.as_secs_f64();
        rep.vals.extend([
            (
                "core.rounds_per_decision",
                per(tally.points[P_ROUND], heights),
            ),
            (
                "core.delays_per_decision",
                per(tally.points[P_DELAY], heights),
            ),
            ("core.delay_share_est", per_op_thread(delay_s)),
            (
                "log.proposes_per_commit",
                per(tally.points[P_PROPOSE], heights),
            ),
        ]);
    }
    if spans {
        let (read_ns, write_ns) = probe::calibrate_native();
        let reg_s = (tally.reads as f64 * read_ns + tally.writes as f64 * write_ns) / 1e9;
        rep.vals.extend([
            ("trace.span_cover", per(span_ns, thread_ns)),
            ("registers.reads_per_op", per(tally.reads, rep.ops)),
            ("registers.writes_per_op", per(tally.writes, rep.ops)),
            ("registers.read_ns", read_ns),
            ("registers.write_ns", write_ns),
            ("registers.time_share", per_op_thread(reg_s)),
            ("core.decisions", heights as f64),
            ("core.mean_batch", BATCH as f64),
            ("core.reg_ops_per_decision", per(tally.reg_ops(), heights)),
            ("log.pumps_per_commit", per(pump_ns.len() as u64, heights)),
            ("log.idle_pump_ratio", per(idle_pumps, pump_ns.len() as u64)),
            ("log.reg_ops_per_commit", per(tally.reg_ops(), heights)),
            ("log.resume_us_per_height", resume_s * 1e6 / heights as f64),
            ("log.audit_s", audit_s),
            ("log.setup_new_s", setup_new_s),
            ("resume_s", resume_s),
        ]);
        rep.samples.extend([
            ("op", commit_ns.clone()),
            ("log.commit", commit_ns),
            ("log.pump", pump_ns),
        ]);
    }
    rep
}

/// Commits every batch from one thread, the two workers taking turns:
/// no proposer ever meets another mid-consensus, so the history and the
/// work of replaying it are the same in every repetition.
fn build_history<S: RegisterSpace>(
    log: &Arc<ReplicatedLog<Counter, S>>,
    inputs: &Inputs,
) -> Vec<Lane> {
    let heights = inputs.heights();
    let mut workers: Vec<_> = (0..WORKERS)
        .map(|w| LogWorker::new(Arc::clone(log), ProcId(w)))
        .collect();
    let mut next = [0usize; WORKERS];
    while workers.iter().any(|w| w.applied_len() < heights) {
        for (w, worker) in workers.iter_mut().enumerate() {
            let batches = &inputs.batches[w];
            while next[w] < batches.len() && worker.pending() < WINDOW {
                worker.enqueue(&batches[next[w]]);
                next[w] += 1;
            }
            worker.pump();
        }
    }
    workers.iter().map(lane_of).collect()
}

fn resume_rep<S: RegisterSpace>(
    inputs: &Inputs,
    resumes: usize,
    wrap: fn(NativeSpace) -> S,
    mode: Mode,
) -> Rep {
    let mut rep = Rep::default();
    let heights = inputs.heights();
    let setup_from = Instant::now();
    let log = Arc::new(new_log(heights, wrap));
    let setup_new_s = setup_from.elapsed().as_secs_f64();
    let written = build_history(&log, inputs);
    rep.setup_s = setup_from.elapsed().as_secs_f64();

    probe::take_tally();
    let mut resume_ns = Vec::with_capacity(resumes);
    // The incarnations stay alive until the audit, so nothing but the
    // replays happens inside the region.
    let mut incarnations = Vec::with_capacity(resumes);
    let start = Instant::now();
    for _ in 0..resumes {
        let (s, worker) = resume_once(&log, heights);
        resume_ns.push((s * 1e9) as u64);
        incarnations.push(worker);
    }
    rep.timed_s = start.elapsed().as_secs_f64();
    let tally = probe::take_tally();
    let resumed: Vec<Lane> = incarnations.iter().map(lane_of).collect();
    drop(incarnations);
    // An operation is one height replayed.
    rep.ops = resumed.iter().map(|l| l.0.len() as u64).sum();

    let t_audit = Instant::now();
    let lanes: Vec<&Lane> = written.iter().chain(&resumed).collect();
    check_lanes(&mut rep, &log, &lanes, inputs);
    let audit_s = t_audit.elapsed().as_secs_f64();

    if mode == Mode::Spans {
        let span_ns: u64 = resume_ns.iter().sum();
        let per = |a: u64, b: u64| a as f64 / (b as f64).max(1.0);
        let (read_ns, write_ns) = probe::calibrate_native();
        let reg_s = (tally.reads as f64 * read_ns + tally.writes as f64 * write_ns) / 1e9;
        let resume_s = crate::stats::median(
            &resume_ns
                .iter()
                .map(|&ns| ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        );
        rep.vals.extend([
            ("trace.span_cover", span_ns as f64 / 1e9 / rep.timed_s),
            ("registers.reads_per_op", per(tally.reads, rep.ops)),
            ("registers.writes_per_op", per(tally.writes, rep.ops)),
            ("registers.read_ns", read_ns),
            ("registers.write_ns", write_ns),
            ("registers.time_share", reg_s / rep.ops.max(1) as f64),
            ("log.resume_us_per_height", resume_s * 1e6 / heights as f64),
            ("log.audit_s", audit_s),
            ("log.setup_new_s", setup_new_s),
            ("resume_s", resume_s),
        ]);
        rep.samples.push(("op", resume_ns));
    }
    rep
}

pub fn pipeline(seed: u64, size: Size) -> RepFn {
    probe::keep_freed_memory();
    let inputs = Inputs::generate(
        seed,
        match size {
            Size::Full => 3_125,
            Size::Tiny => 40,
        },
    );
    Box::new(move |mode| {
        if mode == Mode::Spans {
            pipeline_rep(&inputs, TimedSpace::counting, mode)
        } else {
            pipeline_rep(&inputs, |space| space, mode)
        }
    })
}

pub fn resume(seed: u64, size: Size) -> RepFn {
    let (batches_per_worker, resumes) = match size {
        Size::Full => (25_000, 12),
        Size::Tiny => (40, 3),
    };
    probe::keep_freed_memory();
    let inputs = Inputs::generate(seed, batches_per_worker);
    Box::new(move |mode| {
        if mode == Mode::Spans {
            resume_rep(&inputs, resumes, TimedSpace::counting, mode)
        } else {
            resume_rep(&inputs, resumes, |space| space, mode)
        }
    })
}
