//! A sharded wait-free object service over the universal construction —
//! the workspace's "computing at scale" layer, verified under load.
//!
//! The paper's universality result (§1.4) makes any sequential object
//! wait-free and timing-resilient; this crate turns that single object
//! into a *service*: thousands of simulated clients addressing keyed
//! objects, routed across per-core shards, with **flat-combining
//! batches** so one timing-resilient consensus decision commits a whole
//! burst of operations instead of one.
//!
//! # Pieces
//!
//! * [`Router`] — the pure, seeded key → shard map (total and stable, so
//!   one key's operations always share one consensus log).
//! * [`Keyed`] — key-multiplexing for any
//!   [`Sequential`](tfr_core::universal::Sequential) object: one shard
//!   log hosts many independent instances, linearizable per key.
//! * [`ObjectService`] / [`ServiceWorker`] — the service proper: one
//!   register space tiled into disjoint shard regions
//!   ([`SubSpace::tile`](tfr_registers::space::SubSpace::tile)), each
//!   running a [`Universal`](tfr_core::universal::Universal) log;
//!   workers announce bursts and drive batched commits, emitting
//!   `ServiceEnqueue` / `BatchCommit` telemetry. Runs unchanged over
//!   native shared memory or the `tfr-net` quorum space.
//! * [`load`] — the load harness: simulated clients (each with one
//!   operation in flight, so program order is real), throughput and
//!   batch-size accounting, and **under-load linearizability sampling**
//!   via `tfr-linearize`'s windowed recorder.
//! * [`mutants`] — two seeded combiner bugs, [`CombinerKind::Reordering`]
//!   (hands a committed burst's same-key responses back crossed) and
//!   [`CombinerKind::LostOp`] (announces one operation with its amount
//!   withheld but answers as if it applied). Both are faults in how a
//!   worker answers a real burst after [`ServiceWorker::drive`], so the
//!   load harness runs them through the real service, on any backend,
//!   and the same sampler that certifies the real batcher: the tests
//!   prove the sampler accepts the real implementation and rejects both
//!   mutants.
//!
//! # Example
//!
//! ```
//! use tfr_registers::ProcId;
//! use tfr_service::{ObjectService, ServiceConfig};
//! use tfr_core::universal::Counter;
//!
//! let svc = ObjectService::new(|| Counter, &ServiceConfig::new(4, 2));
//! let mut worker = svc.worker(ProcId(0));
//! worker.enqueue_burst(&[(7, 5), (8, 1), (7, 3)]);
//! let done = worker.drive(); // one batch, one consensus decision
//! assert_eq!(done[2].resp, 8, "key 7 accumulated 5 + 3");
//! ```

pub mod keyed;
pub mod load;
pub mod mutants;
pub mod router;
pub mod service;

pub use keyed::{decode_op, encode_op, Keyed};
pub use load::{
    run_load, run_load_native, CombinerKind, LoadConfig, LoadReport, SamplingConfig, SamplingReport,
};
pub use router::Router;
pub use service::{ObjectService, OpResponse, ServiceConfig, ServiceWorker};
