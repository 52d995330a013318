//! The workloads: what each one runs, why it exists, and the shape of
//! one repetition.
//!
//! A run repeats a workload's *repetition* (set-up → barrier → timed
//! region → output checks → teardown) until its time budget is spent, so
//! set-up is measured several times and every rate is a median. Inputs
//! are generated once per run from the seed and are the same in every
//! repetition; the program under test receives only those inputs.

pub mod log;
pub mod mutex;
pub mod service;
pub mod storm;

/// How much work a repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size (see the README's sizing table).
    Full,
    /// A few milliseconds of the same shape, for the smoke tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Constructing the system under test, up to the barrier.
    pub setup_s: f64,
    /// The timed region.
    pub timed_s: f64,
    /// Peak resident set of this repetition (set by the runner).
    pub peak_rss_mb: f64,
    /// Operations completed in the timed region.
    pub ops: u64,
    /// Output checks made, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Per-layer scalars (empty unless traced).
    pub vals: Vec<(&'static str, f64)>,
    /// Raw ns samples by stream name (empty unless traced).
    pub samples: Vec<(&'static str, Vec<u64>)>,
}

impl Rep {
    /// Records one output check: `checked` units attempted, `bad` of
    /// them failed, described by `what`.
    pub fn check(&mut self, checked: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += checked;
        if bad > 0 {
            self.failed += bad.min(checked);
            self.failures.push(what());
        }
    }

    /// Completed operations per second of timed region.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.timed_s.max(1e-9)
    }
}

/// How a repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Not at all: the end-to-end numbers come from these.
    Plain,
    /// Clock reads around the benchmark's own calls, and wrappers at the
    /// public seams (register space, inner lock, delay source).
    Spans,
    /// Worker threads under `run_as` with a point observer counting
    /// injection-point hits. Kept apart from [`Mode::Spans`] because the
    /// hook fires on every register access of a consensus round and
    /// costs about half the native throughput, which would inflate every
    /// span taken alongside it.
    Points,
}

/// One repetition, instrumented as asked.
pub type RepFn = Box<dyn FnMut(Mode) -> Rep>;

/// A named workload. `make` generates the inputs from the seed and
/// returns the repetition over them.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether the workload has metrics that need [`Mode::Points`].
    pub points: bool,
    pub make: fn(seed: u64, size: Size) -> RepFn,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: &[Workload] = &[
    Workload {
        name: "svc_solo",
        why: "one worker, one shard, native registers: the uncontended fast path, all CPU in service, core and registers",
        points: true,
        make: service::solo,
    },
    Workload {
        name: "svc_contended",
        why: "two workers collide on every slot of two shards: conflict rounds, delay and combining in core dominate",
        points: true,
        make: service::contended,
    },
    Workload {
        name: "svc_quorum",
        why: "the same service over ABD quorum registers: every access is a network round, so net does nearly all the work",
        points: false,
        make: service::quorum,
    },
    Workload {
        name: "log_pipeline",
        why: "two log workers keep four batches in flight each: the log state machine plus per-height consensus",
        points: true,
        make: log::pipeline,
    },
    Workload {
        name: "log_resume",
        why: "a recovered log worker replays a decided prefix: today the cost grows with history, which compaction must fix",
        points: false,
        make: log::resume,
    },
    Workload {
        name: "mutex_faults",
        why: "Algorithm 3 under seeded timing failures in its hazard window, mutual exclusion checked on every passage",
        points: false,
        make: mutex::faults,
    },
    Workload {
        name: "sim_storm",
        why: "a million simulated processes in a timing-failure storm: timer wheel, driver and copy-on-write bank on host time",
        points: false,
        make: storm::storm,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
