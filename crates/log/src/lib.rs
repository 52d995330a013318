//! Multi-height replicated log: commit pipelining over timing-resilient
//! consensus, driving log-based state-machine replication.
//!
//! The workspace's `tfr-core` decides *one* value per consensus object
//! and its universal construction serializes ops through a single
//! announce/combine cell. This crate scales that out along a second
//! axis: a **height-indexed sequence** of [`MultiConsensus`] instances
//! over one shared [`RegisterSpace`], where height `h` commits one
//! proposer's whole batch and every replica applies committed batches
//! in strict height order — classic log-driven state-machine
//! replication, built from the paper's Δ-tuned primitives.
//!
//! [`MultiConsensus`]: tfr_core::universal::MultiConsensus
//! [`RegisterSpace`]: tfr_registers::space::RegisterSpace
//!
//! The interesting part is **commit pipelining**: deciding height
//! `h + 1` while `h`'s decision is still propagating to appliers. All
//! of that logic is a pure, I/O-free [`machine::HeightStateMachine`]
//! (the Malachite-style split of decision logic from substrate
//! effects): the machine bounds the decision frontier to at most
//! `window` heights past the cluster's applied floor, and the drivers
//! in [`log`] merely execute its [`machine::Effect`]s against the
//! registers. `window = 1` is the sequential-heights baseline;
//! `window > 1` overlaps consensus on the next height with the
//! propagation of the previous one. Inside the window, height `h` is
//! owned by worker `h mod n`, and each worker proposes at its own
//! heights without waiting for lower ones to decide, so the workers
//! decide different heights in parallel instead of meeting at each.
//!
//! Pipelining is safe because *application* stays strictly sequential:
//! a height's decision is a one-shot consensus outcome, immutable once
//! written, so once any replica applies height `h` every other replica
//! will apply the same entry at `h` — running the frontier ahead can
//! reorder *deciding*, never *applying*. The [`audit::LogAudit`]
//! mechanizes that claim: every applier lane must be an in-order prefix
//! of the one register-reconstructed canonical sequence, compared by a
//! chained order-sensitive digest.
//!
//! Layers:
//!
//! * [`machine`] — the pure height state machine (window enforcement,
//!   height ownership, the reserve rule and takeover, lost-batch
//!   requeue, strict in-order application).
//! * [`log`] — the register substrate ([`ReplicatedLog`]) and the
//!   impure drivers: proposing [`LogWorker`]s and passive
//!   [`LogReplica`]s. Runs unchanged over native atomics or a `tfr-net`
//!   quorum space.
//! * [`objects`] — one-shot [`Renaming`] in op-encoded [`Sequential`]
//!   form, joining `Counter` and `FifoQueue` as replicated objects.
//! * [`audit`] — applied-prefix convergence checking.
//! * [`mutants`] — intentionally broken appliers
//!   ([`ReorderingApplier`]) proving the audit and the online prefix
//!   monitor actually reject out-of-order application.
//!
//! [`Sequential`]: tfr_core::universal::Sequential
//!
//! # Example
//!
//! A replicated counter: batches commit through per-height consensus,
//! a passive replica converges to the same applied prefix.
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use tfr_core::universal::Counter;
//! use tfr_log::{LogConfig, LogReplica, LogWorker, ReplicatedLog};
//! use tfr_registers::ProcId;
//!
//! let cfg = LogConfig::new(1, Duration::from_micros(10));
//! let log = Arc::new(ReplicatedLog::new(Counter, cfg));
//! let mut worker = LogWorker::new(Arc::clone(&log), ProcId(0));
//! let mut replica = LogReplica::new(Arc::clone(&log), 0);
//!
//! worker.enqueue(&[5, 7]);
//! worker.drive(); // commit through consensus, apply in height order
//! replica.poll();
//! assert_eq!(*replica.state(), 12);
//! assert!(log.audit(&[worker.applied_log(), replica.applied_log()]).converged());
//! ```

pub mod audit;
pub mod load;
pub mod log;
pub mod machine;
pub mod mutants;
pub mod objects;

pub use audit::{chain_digest, AppliedEntry, LogAudit};
pub use load::{run_smr, SmrConfig, SmrReport};
pub use log::{Layout, LogConfig, LogReplica, LogWorker, ReplicatedLog};
pub use machine::{Effect, HeightStateMachine};
pub use mutants::ReorderingApplier;
pub use objects::Renaming;
