//! Deterministic discrete-event simulator for the paper's timing-based
//! shared-memory model.
//!
//! The model ("Computing in the Presence of Timing Failures", §1.2): the
//! only shared objects are atomic read/write registers; there is a known
//! upper bound Δ on the time any single shared-memory access takes; each
//! process can execute `delay(d)`, suspending for at least `d`. A **timing
//! failure** is an access that takes longer than Δ; a **crash** is an access
//! that never completes.
//!
//! The simulator executes [`tfr_registers::spec::Automaton`]s under a
//! pluggable [`timing::TimingModel`]:
//!
//! * each action is issued at the instant the previous one completed,
//! * the timing model assigns it a duration (or crashes the process),
//! * the action **linearizes at its completion instant** — a read observes
//!   the register value at that instant, a write installs its value then.
//!
//! Everything is driven by a virtual clock in [`tfr_registers::Ticks`], so
//! runs are exactly reproducible from a seed, and measured quantities
//! (decision times, entry intervals) come out in the same Δ units the
//! paper's theorems use.
//!
//! # Example
//!
//! ```
//! use tfr_registers::{Delta, ProcId, RegId, Ticks};
//! use tfr_registers::spec::{Action, Automaton, Obs};
//! use tfr_sim::{RunConfig, Sim};
//! use tfr_sim::timing::Fixed;
//!
//! /// Each process writes its id to its own register, then halts.
//! struct WriteSelf;
//! impl Automaton for WriteSelf {
//!     type State = (ProcId, bool);
//!     fn init(&self, pid: ProcId) -> Self::State { (pid, false) }
//!     fn next_action(&self, s: &Self::State) -> Action {
//!         if s.1 { Action::Halt } else { Action::Write(RegId(s.0 .0 as u64), s.0.token()) }
//!     }
//!     fn apply(&self, s: &mut Self::State, _obs: Option<u64>, _o: &mut Vec<Obs>) {
//!         s.1 = true;
//!     }
//! }
//!
//! let config = RunConfig::new(3, Delta::from_ticks(100));
//! let result = Sim::new(WriteSelf, config, Fixed::new(Ticks(10))).run();
//! assert!(result.all_halted());
//! assert_eq!(result.end_time, Ticks(10));
//! ```

pub mod driver;
pub mod metrics;
pub mod sched;
pub mod timing;
pub mod workload;

pub use driver::{Engine, EngineStatus, RegisterFault, RunConfig, RunResult, Sim, TimedObs};
