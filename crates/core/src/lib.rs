//! Time-resilient consensus and mutual exclusion — the algorithms of
//! **Gadi Taubenfeld, "Computing in the Presence of Timing Failures",
//! ICDCS 2006** — plus the wait-free objects they make possible.
//!
//! # The model
//!
//! A *timing-based* shared-memory system: atomic read/write registers, a
//! known upper bound Δ on the duration of any single shared-memory access,
//! and an explicit `delay(d)` statement. A **timing failure** is a period
//! during which these constraints are not met (an access outlasting Δ).
//!
//! An algorithm is **resilient to timing failures** w.r.t. time complexity
//! ψ when (§1.3 of the paper):
//!
//! 1. **Stabilization** — its safety properties hold *always*, even during
//!    timing failures, and all its properties hold immediately once
//!    failures stop;
//! 2. **Efficiency** — without timing failures its time complexity is ψ
//!    (here always `c·Δ` for a small constant `c`);
//! 3. **Convergence** — a finite time after failures stop, the time
//!    complexity is ψ again.
//!
//! # What lives here
//!
//! * [`consensus`] — **Algorithm 1**: wait-free, fast, time-resilient
//!   binary consensus from atomic registers. Decides within 15·Δ without
//!   failures; a solo process decides in 6 of its own steps regardless of
//!   failures; safety holds under arbitrary timing failures (this is the
//!   possibility result that contrasts with FLP/LA impossibility in fully
//!   asynchronous systems). Its variants are parameters of the one spec:
//!   a growing delay schedule is the unknown-Δ algorithm of \[3\], and a
//!   round cap makes its registers finite.
//! * [`mutex::fischer`] — **Algorithm 2**: Fischer's classic timing-based
//!   lock. O(Δ) when constraints hold, but its mutual exclusion *breaks*
//!   under timing failures — the motivating non-example.
//! * [`mutex::resilient`] — **Algorithm 3**: Fischer's wrapper around a
//!   fast asynchronous lock `A`. Mutual exclusion holds always; with a
//!   starvation-free `A` the lock converges back to O(Δ) after failures
//!   (Theorem 3.3), with a merely deadlock-free `A` it may never converge
//!   (Theorem 3.2).
//! * [`adaptive`] — the practical `optimistic(Δ)` estimator (§1.2): run
//!   with an optimistic, adaptively tuned Δ; resilience makes a wrong
//!   estimate a performance problem, never a correctness problem.
//! * [`bounded`] — the §2.1 remark made concrete: consensus with *finitely
//!   many* registers when the duration of timing failures is bounded
//!   (Algorithm 1 with its rounds capped, and the round budget).
//! * [`derived`] — wait-free, time-resilient objects built from consensus:
//!   leader election, test-and-set, n-renaming, set consensus.
//! * [`universal`] — multivalued consensus and a Herlihy-style universal
//!   construction: a wait-free, time-resilient implementation of *any*
//!   sequential object from atomic registers (§1.4).
//! * [`election_spec`] — multivalued consensus's pid election as a
//!   register automaton, the one [`universal::MultiConsensus`] runs.
//! * [`resilience`] — §1.3's three-part definition (stabilization,
//!   efficiency, convergence) as an executable assessment protocol.
//!
//! Algorithm 1, the election and the locks are each written once, as a
//! **spec** (the election composes Algorithm 1's automaton, one per pid
//! bit; Fischer's lock and Algorithm 3 are `tfr_asynclock::LockSpec`s): a
//! register automaton that the `tfr-sim` discrete-event simulator and the
//! `tfr-modelcheck` explorer run, and that one native driver,
//! `tfr_asynclock::driver::Driver`, runs against any `RegisterSpace`
//! (real threads and `std::sync::atomic`, or a quorum emulation) as
//! [`consensus::NativeConsensus`], [`bounded::BoundedNativeConsensus`],
//! [`universal::MultiConsensus`] and, through
//! `tfr_asynclock::native::Derived`, every native lock. The spec's labels
//! tell the driver which injection point precedes a step, which writes
//! are agreed (the explorer proves they are), and which steps go out
//! together.
//!
//! The derived objects and the universal construction have only their
//! native form, built on those; `tfr-linearize` checks their recorded
//! histories.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use tfr_core::consensus::NativeConsensus;
//!
//! let consensus = Arc::new(NativeConsensus::new(Duration::from_micros(50)));
//! let handles: Vec<_> = (0..4)
//!     .map(|i| {
//!         let c = Arc::clone(&consensus);
//!         std::thread::spawn(move || c.propose(i % 2 == 0))
//!     })
//!     .collect();
//! let first = handles.into_iter().map(|h| h.join().unwrap()).next().unwrap();
//! assert_eq!(consensus.decision(), Some(first));
//! ```

pub mod adaptive;
pub mod bounded;
pub mod consensus;
pub mod derived;
pub mod election_spec;
pub mod mutex;
pub mod resilience;
pub mod universal;
pub mod verify;
