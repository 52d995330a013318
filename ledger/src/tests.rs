//! Smoke tests: every workload at tiny size, traced and untraced.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{run, Outcome};
use crate::workloads::{self, Size};
use std::sync::{Mutex, MutexGuard};

/// The point observer is process-wide, so traced runs take turns.
fn traced_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// One cycle of repetitions of `name` at tiny size.
fn tiny(name: &str, seed: u64, traced: bool) -> Outcome {
    let _turn = traced.then(traced_turn);
    let workload = workloads::find(name).expect("a listed workload");
    run(workload, seed, 0.0, traced, Size::Tiny)
}

fn value(out: &Outcome, name: &str) -> f64 {
    let reading = out.readings.iter().find(|r| r.name == name);
    reading
        .unwrap_or_else(|| panic!("{name} not reported"))
        .value
}

#[test]
fn every_workload_runs_untraced_and_reports_the_end_to_end_metrics() {
    for w in workloads::ALL {
        let out = tiny(w.name, 3, false);
        assert!(out.correct(), "{}: {:?}", w.name, out.failures);
        assert!(out.attempted >= 1);
        let names: Vec<&str> = out.readings.iter().map(|r| r.name).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, listed, "{}", w.name);
        for r in &out.readings {
            assert!(r.value > 0.0, "{} {} must never read 0", w.name, r.name);
        }
    }
}

#[test]
fn every_workload_runs_traced_and_covers_its_time_with_spans() {
    for w in workloads::ALL {
        let out = tiny(w.name, 3, true);
        assert!(out.correct(), "{}: {:?}", w.name, out.failures);
        let names: Vec<&str> = out.readings.iter().map(|r| r.name).collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, listed, "{}", w.name);
        let cover = value(&out, "trace.span_cover");
        assert!((0.98..=1.0).contains(&cover), "{} cover {cover}", w.name);
        assert!(value(&out, "trace.overhead").is_finite());
        assert_eq!(value(&out, "failed_share"), 0.0);
    }
}

#[test]
fn solo_and_storm_counts_repeat_for_a_seed_and_storms_differ_between_seeds() {
    let counts = |workload: &str, names: &[&str], seed: u64| -> Vec<f64> {
        let out = tiny(workload, seed, true);
        assert!(out.correct(), "{workload}: {:?}", out.failures);
        names.iter().map(|n| value(&out, n)).collect()
    };
    for (workload, names) in [
        (
            "svc_solo",
            &["registers.reads_per_op", "registers.writes_per_op"][..],
        ),
        (
            "sim_storm",
            &["sim.steps", "sim.timing_failures", "sim.crashed"][..],
        ),
    ] {
        let first = counts(workload, names, 11);
        assert!(first.iter().all(|v| *v > 0.0), "{workload}: {first:?}");
        assert_eq!(first, counts(workload, names, 11), "{workload}: same seed");
        // One worker on one shard makes the same register accesses per
        // burst whatever the keys, so only the storm moves with the seed.
        let other = counts(workload, names, 12);
        assert_eq!(
            first == other,
            workload == "svc_solo",
            "{workload}: other seed"
        );
    }
}

#[test]
fn the_solo_fast_path_never_delays() {
    let out = tiny("svc_solo", 9, true);
    assert_eq!(value(&out, "core.delays_per_decision"), 0.0);
    assert!(
        value(&out, "core.rounds_per_decision") > 0.0,
        "points were counted"
    );
    assert_eq!(value(&out, "core.mean_batch"), 16.0);
}

#[test]
fn mutex_faults_injects_failures_and_keeps_exclusion() {
    let out = tiny("mutex_faults", 4, true);
    assert!(out.correct(), "{:?}", out.failures);
    assert!(value(&out, "core.mutex_faults_injected") > 0.0);
    assert!(value(&out, "core.mutex_delays_per_entry") >= 1.0);
}

#[test]
fn the_out_file_round_trips_through_the_comparator() {
    let out = tiny("log_resume", 2, false);
    let file = tfr_telemetry::Json::parse(&out.file_json().to_string()).expect("valid JSON");
    assert_eq!(
        crate::check::aa_problems(&file, &file),
        Vec::<String>::new()
    );
    let line = out.contract_json();
    let tfr_telemetry::Json::Obj(pairs) = &line else {
        panic!("not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}
