//! Unified telemetry for the timing-failure workspace: lock-free event
//! tracing, a metrics registry, and Chrome-trace/Perfetto export for the
//! native and network stacks.
//!
//! The paper's claims are *temporal* — Δ bounds, entry waits of at most
//! ψ, convergence after failures stop — so debugging and benchmarking
//! both want the same artifact: a timeline. This crate provides it in
//! three layers:
//!
//! * **Tracing core** ([`Tracer`], [`Trace`], [`Event`]) — per-process
//!   single-writer ring buffers (the same discipline as the
//!   linearizability checker's history recorder) holding typed protocol
//!   events stamped in nanoseconds. A disabled [`Trace`] costs one
//!   `Option` check per hook, and construction defaults to disabled.
//! * **Metrics** ([`Counter`], [`Histogram`], [`MetricsRegistry`]) —
//!   atomic counters and log-bucketed histograms, derivable after the
//!   fact from any event stream with [`MetricsRegistry::from_events`].
//! * **Exporters** ([`ChromeTraceBuilder`], [`summary`]) — Chrome-trace /
//!   Perfetto JSON (one track per process; faults as instant events, the
//!   Δ estimate as a counter track) and the machine-readable
//!   `BENCH_telemetry.json` summary with the §1.3 convergence time.
//!
//! Native code emits events live through [`Trace`] hooks and the
//! [`ChaosTraceObserver`] bridge.
//!
//! # Example
//!
//! Record events by hand, export, and parse the export back:
//!
//! ```
//! use std::sync::Arc;
//! use tfr_registers::ProcId;
//! use tfr_telemetry::{ChromeTraceBuilder, EventKind, Json, Trace, Tracer};
//!
//! let tracer = Arc::new(Tracer::new(2));
//! let trace = Trace::attached(Arc::clone(&tracer));
//! trace.emit(ProcId(0), EventKind::LockWaitStart);
//! trace.emit(ProcId(0), EventKind::LockAcquired { wait_ns: 120 });
//! trace.emit(ProcId(0), EventKind::LockReleased);
//!
//! let mut builder = ChromeTraceBuilder::new();
//! builder.add_run("demo", &tracer.events());
//! let parsed = Json::parse(&builder.render()).unwrap();
//! assert!(!parsed.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
//! ```

pub mod chrome;
pub mod event;
pub mod handle;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod ring;
pub mod span;
pub mod summary;

pub use chrome::ChromeTraceBuilder;
pub use event::{Event, EventKind};
pub use handle::{current_pid, with_pid, Trace};
pub use json::Json;
pub use metrics::{Counter, Histogram, MetricsRegistry};
pub use observer::ChaosTraceObserver;
pub use ring::{DrainCursor, Tracer};
pub use span::{current_span_id, Span};
pub use summary::{
    convergence_from_events, heal_convergence_from_events, recovery_spans_from_events,
    run_summary_json, ConvergenceReport, RecoverySpan,
};
