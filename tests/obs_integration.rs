//! End-to-end observability tests: the causal span tree of a client op
//! on the network backend (walked through the exported Perfetto JSON),
//! online monitors catching the log's seeded reordering applier *while
//! it runs* and
//! a real Fischer mutual-exclusion violation under the chaos nemesis,
//! and ring-overflow counts surfaced end-to-end in the JSON summary.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use tfr::chaos::nemesis::violation_setup_from_seed;
use tfr::chaos::{run_mutex_chaos, MutexChaosConfig};
use tfr::core::mutex::fischer::Fischer;
use tfr::core::universal::Counter;
use tfr::log::{LogConfig, LogWorker, ReorderingApplier, ReplicatedLog};
use tfr::net::{NetConfig, Network};
use tfr::obs::{Collector, CollectorConfig};
use tfr::registers::ProcId;
use tfr::service::load::{run_load, run_load_native, LoadConfig};
use tfr::telemetry::summary::run_summary_json;
use tfr::telemetry::{
    convergence_from_events, with_pid, ChromeTraceBuilder, EventKind, Json, Trace, Tracer,
};

/// One client op through the sharded service over the ABD quorum backend
/// yields a *connected* causal span tree in the exported Perfetto JSON:
/// every `quorum.phase1`/`quorum.phase2` slice walks up its parent links
/// to a `client.op` root, and the client↔replica message hops appear as
/// paired flow arrows.
#[test]
fn net_backend_client_op_exports_a_connected_span_tree() {
    let net_cfg = NetConfig::new(1, 3, 0x0b5e);
    let tracer = Arc::new(Tracer::new(net_cfg.tracer_processes()));
    let net = Arc::new(Network::with_trace(
        net_cfg,
        Trace::attached(Arc::clone(&tracer)),
    ));
    // A single client, a single op: one `client.op` root span.
    let cfg = LoadConfig {
        ops_per_client: 1,
        burst: 1,
        delta: Duration::from_micros(200),
        ..LoadConfig::new(1, 1, 1)
    };
    let report = run_load(
        Arc::new(net.space()),
        &cfg,
        &Trace::attached(Arc::clone(&tracer)),
    );
    assert!(report.state_ok && report.audit_complete, "workload correct");
    assert_eq!(report.ops, 1);
    drop(net); // quiesce the router before reading the rings

    let events = tracer.events();
    assert_eq!(tracer.dropped(), 0, "nothing may be dropped in this test");
    let mut builder = ChromeTraceBuilder::new();
    builder.add_run("net single op", &events);
    let parsed = Json::parse(&builder.render()).expect("exporter emits valid JSON");
    let track = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    // Index every causal slice: span id → (label, parent id).
    let mut slices: BTreeMap<u64, (String, u64)> = BTreeMap::new();
    for ev in track {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let (Some(args), Some(name)) = (ev.get("args"), ev.get("name").and_then(Json::as_str))
        else {
            continue;
        };
        if let (Some(span), Some(parent)) = (
            args.get("span").and_then(Json::as_num),
            args.get("parent").and_then(Json::as_num),
        ) {
            slices.insert(span as u64, (name.to_string(), parent as u64));
        }
    }

    // Every quorum phase must walk its parent links to a root without
    // dangling — that is the tree being *connected* — and the client
    // op's phases must climb the whole chain: quorum.phase* →
    // quorum.read/write → consensus → batch.drive → client.op. (Setup
    // and audit ops run outside the worker loop, so their quorum ops
    // legitimately root at the quorum span itself.)
    let mut phases = 0;
    let mut full_chains = 0;
    for (span, (label, _)) in &slices {
        if label != "quorum.phase1" && label != "quorum.phase2" {
            continue;
        }
        phases += 1;
        let mut at = *span;
        let mut path = vec![label.clone()];
        loop {
            let (_, parent) = slices[&at];
            if parent == 0 {
                break;
            }
            let (plabel, _) = slices
                .get(&parent)
                .unwrap_or_else(|| panic!("span {at} has a dangling parent {parent}"))
                .clone();
            path.push(plabel);
            at = parent;
        }
        assert!(
            path.iter()
                .any(|l| l == "quorum.read" || l == "quorum.write"),
            "phase span {span} must nest inside a quorum op, walked {path:?}"
        );
        if path.last().map(String::as_str) == Some("client.op")
            && path.iter().any(|l| l == "consensus")
        {
            full_chains += 1;
        }
    }
    assert!(phases >= 2, "a quorum op runs at least two phases");
    assert!(
        full_chains >= 2,
        "the client op's consensus round must reach the quorum phases \
         through a connected chain rooted at client.op"
    );
    // The batching layers are on the same tree.
    for required in ["client.op", "client.enqueue", "batch.drive", "consensus"] {
        assert!(
            slices.values().any(|(l, _)| l == required),
            "the tree must contain a {required} span"
        );
    }

    // Client↔replica hops: every flow start has a matching finish.
    let mut starts = Vec::new();
    let mut finishes = Vec::new();
    for ev in track {
        let id = ev.get("id").and_then(Json::as_num);
        match ev.get("ph").and_then(Json::as_str) {
            Some("s") => starts.push(id),
            Some("f") => finishes.push(id),
            _ => {}
        }
    }
    assert!(starts.len() >= 2, "message hops must produce flow arrows");
    assert_eq!(starts, finishes, "every flow start pairs with a finish");
}

/// The log prefix monitor catches the seeded reordering applier (one
/// adjacent pair of heights applied `h + 1` before `h`) *while the log is
/// still running* (the live flag flips with heights left to commit), not
/// just in the post-mortem — and names the right monitor.
#[test]
fn online_monitors_flag_the_reordering_mutant_during_the_run() {
    // A budget the run only exhausts if the collector never gets to
    // poll: it stops as soon as the live flag is up.
    const HEIGHTS: u64 = 16_384;
    let cfg = LogConfig {
        n: 1,
        replicas: 1,
        heights: HEIGHTS as usize,
        max_batch: 1,
        window: 4,
        delta: Duration::from_micros(10),
    };
    let tracer = Arc::new(Tracer::new(cfg.lanes()));
    let log =
        Arc::new(ReplicatedLog::new(Counter, cfg).with_trace(Trace::attached(Arc::clone(&tracer))));
    let collector = Collector::spawn(
        Arc::clone(&tracer),
        CollectorConfig {
            poll_interval: Duration::from_micros(500),
            window: Duration::from_millis(100),
        },
    );
    with_pid(ProcId(0), || {
        let mut worker = LogWorker::new(Arc::clone(&log), ProcId(0));
        let mut bad = ReorderingApplier::new(Arc::clone(&log), 0, 0xBAD5EED);
        for op in 1..=HEIGHTS {
            worker.enqueue(&[op]);
        }
        let mut i = 0u32;
        while (worker.pending() > 0 || worker.applied_len() < HEIGHTS) && !collector.flagged_live()
        {
            worker.pump();
            // Polling every 4th pump leaves adjacent heights decided
            // together: the swap's opportunity.
            if i.is_multiple_of(4) {
                bad.poll();
            }
            i += 1;
        }
        assert!(bad.fired(), "the seeded swap must fire");
    });
    let obs = collector.finish();
    assert!(!obs.clean(), "the mutant must be flagged");
    assert_eq!(
        obs.violations[0].monitor, "log",
        "the out-of-order apply is a log-monitor matter: {:?}",
        obs.violations[0]
    );
    assert!(
        obs.flagged_live,
        "the violation must be flagged while the run is going \
         ({} violations, {} polls)",
        obs.violations.len(),
        obs.polls
    );
}

/// The real combiner under a 4 096-client load stays CLEAN: the batch
/// monitor raises no false alarm on the service.
#[test]
fn online_monitors_stay_clean_on_the_real_combiner() {
    let cfg = LoadConfig {
        ops_per_client: 16,
        delta: Duration::from_micros(20),
        ..LoadConfig::new(4_096, 4, 4)
    };
    let tracer = Arc::new(Tracer::with_capacity(cfg.workers, 1 << 16));
    let collector = Collector::spawn(Arc::clone(&tracer), CollectorConfig::default());
    let report = run_load_native(&cfg, &Trace::attached(Arc::clone(&tracer)));
    let obs = collector.finish();
    assert!(report.state_ok && report.audit_complete);
    assert!(obs.clean(), "fault-free run: {:?}", obs.violations);
    assert!(!obs.flagged_live);
    assert_eq!(obs.batches, report.batches);
}

/// The mutex monitor re-detects the paper's §2 headline independently:
/// a seeded stall breaks native Fischer on real threads, and the online
/// monitor — watching only the lock's own trace events — flags the
/// intrusion that the chaos harness's intruder counter reports.
#[test]
fn mutex_monitor_redetects_the_fischer_violation() {
    let mut detected = false;
    for seed in 0x0b5eed..0x0b5eed + 16u64 {
        let setup = violation_setup_from_seed(seed);
        let tracer = Arc::new(Tracer::new(setup.config.n));
        let lock = Fischer::new(setup.config.n, setup.delta)
            .with_trace(Trace::attached(Arc::clone(&tracer)));
        let collector = Collector::spawn(
            Arc::clone(&tracer),
            CollectorConfig {
                poll_interval: Duration::from_millis(1),
                window: Duration::from_millis(100),
            },
        );
        let report = run_mutex_chaos(&lock, &setup.config, &setup.faults, Some(&tracer));
        let obs = collector.finish();
        if !report.mutual_exclusion_violated() {
            continue; // this seed's schedule lost the race — try the next
        }
        assert!(
            !obs.clean(),
            "seed {seed}: the harness saw {} intruders but the monitor \
             stayed clean",
            report.intrusions
        );
        assert!(
            obs.violations.iter().any(|v| v.monitor == "mutex"),
            "seed {seed}: the intrusion is a mutex-monitor matter: {:?}",
            obs.violations.first()
        );
        detected = true;
        break;
    }
    assert!(detected, "no seed in the window broke Fischer — unexpected");
}

/// Ring overflow is reported end-to-end: a deliberately tiny ring drops
/// events, and the count survives into the machine-readable summary.
#[test]
fn ring_overflow_counts_reach_the_json_summary() {
    let tracer = Arc::new(Tracer::with_capacity(1, 4));
    let trace = Trace::attached(Arc::clone(&tracer));
    for _ in 0..20 {
        trace.emit(ProcId(0), EventKind::LockReleased);
    }
    let events = tracer.events();
    assert_eq!(events.len(), 4, "the ring keeps its capacity");
    assert_eq!(tracer.dropped(), 16);

    let convergence = convergence_from_events(&events, 0);
    let summary = run_summary_json(
        "overflow probe",
        1,
        0,
        0,
        &events,
        tracer.dropped(),
        &convergence,
    );
    let parsed = Json::parse(&summary.to_string()).expect("summary is valid JSON");
    assert_eq!(
        parsed.get("dropped_events").and_then(Json::as_num),
        Some(16.0),
        "the overflow count must survive into the summary"
    );

    // …and the same count flows through the live collector's report.
    let collector = Collector::spawn(Arc::clone(&tracer), CollectorConfig::default());
    let obs = collector.finish();
    assert_eq!(obs.dropped, 16);
    assert_eq!(
        obs.to_json().get("dropped_events").and_then(Json::as_num),
        Some(16.0)
    );
}

/// `MutexChaosConfig` sanity for the observed wrapper: the default
/// workload over the resilient stack runs CLEAN under the monitors.
#[test]
fn observed_wrapper_is_clean_on_a_fault_free_mutex_run() {
    let n = 2;
    let delta = Duration::from_micros(200);
    let tracer = Arc::new(Tracer::new(n));
    let lock = Fischer::new(n, delta).with_trace(Trace::attached(Arc::clone(&tracer)));
    let cfg = MutexChaosConfig {
        n,
        iterations: 8,
        cs_hold: Duration::from_micros(50),
        ncs_hold: Duration::from_micros(50),
    };
    let collector = Collector::spawn(Arc::clone(&tracer), CollectorConfig::default());
    let report = run_mutex_chaos(&lock, &cfg, &[], Some(&tracer));
    let obs = collector.finish();
    assert!(!report.mutual_exclusion_violated());
    assert!(obs.clean(), "no faults, no flags: {:?}", obs.violations);
    assert_eq!(obs.events as usize, tracer.events().len());
}
