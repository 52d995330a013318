//! Experiment harness reproducing every quantitative claim of the paper.
//!
//! The paper is a theory paper — its "evaluation" is Theorems 2.1–2.4 and
//! 3.1–3.3 plus the complexity claims of §§1–3. Each claim is an
//! experiment here (E1–E12, indexed in `DESIGN.md` and recorded in
//! `EXPERIMENTS.md`); `cargo run -p tfr-bench --bin harness -- all`
//! regenerates every table. Wall-clock benchmarks over the native
//! implementations live in `benches/` (driven by the offline-friendly
//! [`microbench`] shim).

pub mod experiments;
pub mod microbench;
pub mod table;

pub use table::Table;
