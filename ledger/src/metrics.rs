//! The metric catalogue: every name the ledger emits, with its unit,
//! which way is better, and what it is expected to move.
//!
//! `BENCHMARK.json` at the repo root lists the same names;
//! `ledger check --schema` holds the two in agreement.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see. Every
/// workload reports every one of them.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// How a per-layer metric is produced from the traced repetitions.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// The median over repetitions of a scalar the workload computes.
    Val,
    /// As [`Source::Val`], but the value must be identical in every
    /// repetition, and in every run of the same seed, on the workloads
    /// named.
    Exact(&'static [&'static str]),
    /// The median over repetitions of a layer's estimated thread-seconds
    /// per operation and thread, times the untraced repetitions'
    /// operations per second: the layer's share of untraced time.
    PlainShare,
    /// A percentile, in µs, of a pooled stream of ns samples.
    Pct(&'static str, f64),
    /// The largest sample of a stream, in µs.
    Max(&'static str),
    /// The number of samples in a stream.
    Count(&'static str),
    /// Computed by the runner itself.
    Runner,
}

/// A per-layer metric: one layer's count, time or ratio, from a traced
/// run. `moves` and `on` say which end-to-end metric it should move, on
/// which workloads; elsewhere it reads 0.
#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
        on,
    }
}

use Better::{Higher, Lower};
use Source::{Count, Exact, Max, Pct, PlainShare, Runner, Val};

const NATIVE_SVC: &str = "svc_solo, svc_contended";
const ALL_SVC: &str = "svc_solo, svc_contended, svc_quorum";
const LOGS: &str = "log_pipeline, log_resume";
/// Workloads whose register traffic is a pure function of the seed.
const EXACT_REGS: &[&str] = &["svc_solo", "log_resume"];
const EXACT_SIM: &[&str] = &["sim_storm"];

#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // The four names the issue listed as end-to-end that cannot be:
    // every workload must report every end-to-end metric, never as 0.
    layer("op_p50_us", "us", Lower, Pct("op", 0.50), "ops_per_s", "all but sim_storm"),
    layer("op_samples", "count", Higher, Count("op"), "-", "all but sim_storm"),
    layer("events_per_s", "1/s", Higher, Val, "ops_per_s", "sim_storm"),
    layer("resume_s", "s", Lower, Val, "ops_per_s", LOGS),
    layer("failed_share", "ratio", Lower, Runner, "-", "all"),

    layer("registers.reads_per_op", "count", Lower, Exact(EXACT_REGS), "ops_per_s", "all but svc_quorum, sim_storm"),
    layer("registers.writes_per_op", "count", Lower, Exact(EXACT_REGS), "ops_per_s", "all but svc_quorum, sim_storm"),
    layer("registers.read_ns", "ns", Lower, Val, "ops_per_s", "svc_solo"),
    layer("registers.write_ns", "ns", Lower, Val, "ops_per_s", "svc_solo"),
    layer("registers.time_share", "ratio", Lower, PlainShare, "ops_per_s", "svc_solo"),

    layer("core.decisions", "count", Lower, Val, "ops_per_s", "svc_contended, svc_quorum"),
    layer("core.mean_batch", "count", Higher, Val, "ops_per_s", "svc_contended, svc_quorum"),
    layer("core.combine_win_ratio", "ratio", Higher, Val, "ops_per_s", "svc_contended, svc_quorum"),
    layer("core.rounds_per_decision", "count", Lower, Val, "ops_per_s", "svc_contended"),
    layer("core.delays_per_decision", "count", Lower, Val, "ops_per_s", "svc_contended; 0 on svc_solo"),
    layer("core.delay_share_est", "ratio", Lower, PlainShare, "ops_per_s", "svc_contended, mutex_faults"),
    layer("core.reg_ops_per_decision", "count", Lower, Val, "ops_per_s", "svc_contended"),

    layer("service.enqueue_us_p50", "us", Lower, Pct("service.enqueue", 0.50), "ops_per_s", ALL_SVC),
    layer("service.drive_us_p50", "us", Lower, Pct("service.drive", 0.50), "ops_per_s", ALL_SVC),
    layer("service.drive_us_p99", "us", Lower, Pct("service.drive", 0.99), "ops_per_s", NATIVE_SVC),
    layer("service.drive_us_max", "us", Lower, Max("service.drive"), "ops_per_s", "svc_solo"),
    layer("service.bursts", "count", Higher, Val, "-", ALL_SVC),
    layer("service.self_share", "ratio", Lower, Runner, "ops_per_s", "svc_solo"),
    layer("service.setup_new_s", "s", Lower, Val, "setup_s, peak_rss_mb", "svc_contended"),
    layer("service.teardown_s", "s", Lower, Val, "peak_rss_mb", "svc_contended"),
    layer("service.audit_s", "s", Lower, Val, "-", ALL_SVC),

    layer("net.read_us_p50", "us", Lower, Pct("net.read", 0.50), "ops_per_s", "svc_quorum"),
    layer("net.read_us_p99", "us", Lower, Pct("net.read", 0.99), "ops_per_s", "svc_quorum"),
    layer("net.write_us_p50", "us", Lower, Pct("net.write", 0.50), "ops_per_s", "svc_quorum"),
    layer("net.write_us_p99", "us", Lower, Pct("net.write", 0.99), "ops_per_s", "svc_quorum"),
    layer("net.reg_ops", "count", Lower, Val, "ops_per_s", "svc_quorum"),
    layer("net.time_share", "ratio", Lower, Val, "ops_per_s", "svc_quorum"),
    layer("net.msgs_per_reg_op", "count", Lower, Val, "ops_per_s", "svc_quorum"),
    layer("net.msgs_per_delivery_batch", "count", Higher, Val, "ops_per_s", "svc_quorum"),
    layer("net.read_over_link_rtt", "ratio", Lower, Runner, "ops_per_s", "svc_quorum"),
    layer("net.boot_s", "s", Lower, Val, "setup_s", "svc_quorum"),
    layer("net.shutdown_s", "s", Lower, Val, "-", "svc_quorum"),

    layer("log.commit_us_p50", "us", Lower, Pct("log.commit", 0.50), "ops_per_s", "log_pipeline"),
    layer("log.commit_us_p99", "us", Lower, Pct("log.commit", 0.99), "ops_per_s", "log_pipeline"),
    layer("log.pump_us_p50", "us", Lower, Pct("log.pump", 0.50), "ops_per_s", "log_pipeline"),
    layer("log.pumps_per_commit", "count", Lower, Val, "ops_per_s", "log_pipeline"),
    layer("log.idle_pump_ratio", "ratio", Lower, Val, "ops_per_s", "log_pipeline"),
    layer("log.proposes_per_commit", "count", Lower, Val, "ops_per_s", "log_pipeline"),
    layer("log.reg_ops_per_commit", "count", Lower, Val, "ops_per_s", "log_pipeline"),
    layer("log.resume_us_per_height", "us", Lower, Val, "ops_per_s", "log_resume"),
    layer("log.audit_s", "s", Lower, Val, "-", LOGS),
    layer("log.setup_new_s", "s", Lower, Val, "setup_s", LOGS),

    layer("core.mutex_lock_us_p99", "us", Lower, Pct("core.mutex_lock", 0.99), "ops_per_s", "mutex_faults"),
    layer("core.mutex_unlock_us_p50", "us", Lower, Pct("core.mutex_unlock", 0.50), "ops_per_s", "mutex_faults"),
    layer("core.mutex_delays_per_entry", "count", Lower, Val, "ops_per_s", "mutex_faults"),
    layer("core.mutex_retry_ratio", "ratio", Lower, Val, "ops_per_s", "mutex_faults"),
    layer("core.mutex_x_ops_per_entry", "count", Lower, Val, "ops_per_s", "mutex_faults"),
    layer("core.mutex_faults_injected", "count", Higher, Val, "-", "mutex_faults"),
    layer("core.mutex_post_fault_us_p50", "us", Lower, Pct("core.mutex_post_fault", 0.50), "ops_per_s", "mutex_faults"),
    layer("asynclock.lock_us_p50", "us", Lower, Pct("asynclock.lock", 0.50), "ops_per_s", "mutex_faults"),
    layer("asynclock.unlock_us_p50", "us", Lower, Pct("asynclock.unlock", 0.50), "ops_per_s", "mutex_faults"),
    layer("asynclock.time_share", "ratio", Lower, Val, "ops_per_s", "mutex_faults"),

    layer("sim.steps", "count", Lower, Exact(EXACT_SIM), "-", "sim_storm"),
    layer("sim.timing_failures", "count", Lower, Exact(EXACT_SIM), "-", "sim_storm"),
    layer("sim.end_time_ticks", "ticks", Lower, Exact(EXACT_SIM), "-", "sim_storm"),
    layer("sim.crashed", "count", Lower, Exact(EXACT_SIM), "-", "sim_storm"),
    layer("sim.ns_per_event", "ns", Lower, Val, "ops_per_s", "sim_storm"),
    layer("sim.sched_core_events_per_s", "1/s", Higher, Val, "ops_per_s", "sim_storm"),
    layer("sim.sched_share_est", "ratio", Lower, Val, "ops_per_s", "sim_storm"),
    layer("sim.result_drop_s", "s", Lower, Val, "-", "sim_storm"),
    layer("chaos.storm_model_build_s", "s", Lower, Val, "setup_s", "sim_storm"),

    layer("trace.overhead", "ratio", Lower, Runner, "-", "all"),
    layer("trace.points_overhead", "ratio", Lower, Runner, "-", "svc_*, log_pipeline"),
    layer("trace.span_cover", "ratio", Higher, Val, "-", "all"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(crate::check::valid_name(name), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
