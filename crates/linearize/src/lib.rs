//! Linearizability checking for the derived wait-free objects: record
//! concurrent histories from native threads, then verify them against
//! sequential models.
//!
//! The paper's §1.4 claim is *universality*: consensus makes every object
//! with a sequential specification wait-free and time-resilient. This
//! crate is the generic oracle for that claim — instead of per-algorithm
//! invariants (agreement, mutual exclusion), it checks the one property
//! that defines "behaves like its sequential specification under
//! concurrency and failures": **linearizability**.
//!
//! # Pieces
//!
//! * [`history`] — a lock-free [`Recorder`]
//!   (per-process single-writer buffers + one global atomic clock) and
//!   the [`History`] it merges at quiescence. A driver
//!   records an operation by calling `invoke` before it and `response`
//!   after it, on the thread that runs it.
//! * [`checker`] — a Wing–Gong depth-first search with Lowe's memoized
//!   configuration cache and P-compositionality partitioning;
//!   [`check_history`] returns a witness
//!   linearization or a [`NonLinearizable`]
//!   error whose `Display` prints the minimal non-linearizable window.
//! * [`models`] — pluggable [`SeqSpec`] sequential
//!   models for test-and-set, leader election, renaming, set consensus,
//!   counter, FIFO queue, and the locks: plain mutual exclusion
//!   ([`LockModel`]) and its crash-recovery extension
//!   ([`RecoverableLockModel`]), whose
//!   `repair` operation is a release performed on a dead incarnation's
//!   behalf.
//! * [`native`] — chaos drivers: run an object on real threads under a
//!   seeded fault schedule ([`record_chaos`]) and
//!   capture its history, crash faults leaving pending operations.
//!   [`record_recoverable_lock`] drives
//!   the recoverable mutex under `CrashRecover` faults, recording each
//!   new incarnation's repair verdict alongside acquires and releases.
//! * [`register`] — register-level checking for the quorum stack: a
//!   [`RecordingSpace`] wrapper captures every
//!   `read`/`write` on any `RegisterSpace` backend, and
//!   [`RegisterModel`] is the atomic-register
//!   sequential specification the history must satisfy.
//! * [`order`] — **per-writer order across cells**, the property a
//!   per-register check cannot see: [`check_writer_order`] rejects a read
//!   that misses a writer's earlier cell after a read saw its later one,
//!   which is what a quorum space's ordered groups promise a reader.
//! * [`window`] — sampling **under load**: a bank-flipping
//!   [`WindowRecorder`] with bounded per-process
//!   buffers drains checkable [`Window`]s while the
//!   workload runs, and a [`WindowChecker`]
//!   excises quiescent prefixes and checks them incrementally with
//!   carried model state — how the sharded object service verifies its
//!   own benchmark histories.
//! * [`mutants`] — deliberately broken objects (a non-atomic
//!   test-and-set, a queue that drops an element under a stall fault, a
//!   recovery section that leaks the crashed incarnation's orphaned
//!   hold) whose histories the checker provably rejects.
//!
//! # Checking a chaos-scheduled test-and-set run
//!
//! ```
//! use std::time::Duration;
//! use tfr_chaos::{random_schedule, ScheduleConfig};
//! use tfr_linearize::checker::check_history;
//! use tfr_linearize::models::TasModel;
//! use tfr_linearize::native::record_tas;
//!
//! let delta = Duration::from_micros(20);
//! let faults = random_schedule(7, &ScheduleConfig::objects(3, delta));
//! let history = record_tas(3, delta, &faults);
//! let report = check_history(&history, &TasModel).expect("TAS is linearizable");
//! println!(
//!     "ok: {} ops, witness order {:?}",
//!     history.len(),
//!     report.objects[0].order
//! );
//! ```
//!
//! # The oracle has teeth
//!
//! ```
//! use tfr_linearize::checker::check_history;
//! use tfr_linearize::models::TasModel;
//! use tfr_linearize::mutants::record_mutant_tas;
//!
//! let history = record_mutant_tas(); // a non-atomic test-and-set race
//! let err = check_history(&history, &TasModel).expect_err("two winners");
//! println!("{err}"); // prints the minimal non-linearizable window
//! ```

pub mod checker;
pub mod history;
mod lane;
pub mod mcconv;
pub mod models;
pub mod mutants;
pub mod native;
pub mod order;
pub mod register;
pub mod window;

pub use checker::{check_history, check_object, LinReport, NonLinearizable, ObjectReport};
pub use history::{History, Operation, Recorder};
pub use mcconv::lock_history_from_schedule;
pub use models::{
    lock_acquire, lock_release, rec_lock_acquire, rec_lock_release, rec_lock_repair, CounterModel,
    ElectionModel, LockModel, QueueModel, RecoverableLockModel, RenamingModel, SeqSpec,
    SetConsensusModel, TasModel,
};
pub use native::{record_chaos, record_recoverable_lock, ObjectKind};
pub use order::{check_writer_order, OrderReport, OrderViolation};
pub use register::{RecordingSpace, RegisterModel};
pub use window::{
    FromState, Rotation, SampleToken, Window, WindowCheckReport, WindowChecker, WindowRecorder,
};
