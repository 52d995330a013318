//! One module per experiment family; `registry` maps experiment ids to
//! runners and to the gates over their tables, and [`run_and_check`] is
//! the harness: run, print, export, check.

pub mod consensus_safety;
pub mod consensus_time;
pub mod extensions;
pub mod log;
pub mod modelcheck;
pub mod mutex_perf;
pub mod mutex_safety;
pub mod net;
pub mod objects;
pub mod obs;
pub mod optimistic;
pub mod recovery;
pub mod registers;
pub mod service;
pub mod sim_scale;

use crate::table::GateResult;
use crate::Table;
use std::path::Path;
use std::time::Instant;
use tfr_registers::Delta;
use tfr_telemetry::Json;

/// The gates of one experiment: what must hold of the tables it built.
/// They live in the module that names the columns, so a renamed column
/// breaks `cargo test`, not a script in the CI file.
pub type Gates = fn(&[Table]) -> Vec<GateResult>;

/// One experiment: `(id, description, runner, gates)`.
pub type Experiment = (&'static str, &'static str, fn() -> Vec<Table>, Gates);

/// E1–E17 reproduce theorems whose verdicts the runner itself asserts
/// (E6, E11, E13 and E17 also gate their tables).
fn no_gates(_: &[Table]) -> Vec<GateResult> {
    Vec::new()
}

/// The workspace-conventional Δ used by all simulator experiments.
pub fn delta() -> Delta {
    Delta::from_ticks(100)
}

/// All experiments, in index order: `(id, description, runner, gates)`.
pub fn registry() -> Vec<Experiment> {
    vec![
        (
            "e1",
            "consensus decision time without failures (Thm 2.1.1, ≤15Δ)",
            consensus_time::e1,
            no_gates,
        ),
        (
            "e2",
            "fast path: solo decision in 6 steps (Thm 2.1.4)",
            consensus_time::e2,
            no_gates,
        ),
        (
            "e3",
            "recovery: decide by round r+1 after failures stop (Thm 2.1.2)",
            consensus_time::e3,
            no_gates,
        ),
        (
            "e4",
            "wait-freedom under crash failures (Thm 2.4)",
            consensus_time::e4,
            no_gates,
        ),
        (
            "e5",
            "agreement & validity under all timing failures (Thms 2.2/2.3)",
            consensus_safety::e5,
            no_gates,
        ),
        (
            "e6",
            "Fischer breaks under a timing failure; Algorithm 3 does not (§3.1)",
            mutex_safety::e6,
            mutex_safety::gates,
        ),
        (
            "e7",
            "mutex efficiency O(Δ) and convergence (Thm 3.3)",
            mutex_perf::e7,
            no_gates,
        ),
        (
            "e8",
            "non-convergence with a deadlock-free inner lock (Thm 3.2)",
            mutex_perf::e8,
            no_gates,
        ),
        (
            "e9",
            "register usage vs the n-register lower bound (Thm 3.1)",
            registers::e9,
            no_gates,
        ),
        (
            "e10",
            "optimistic(Δ): estimate sweep and AIMD adaptation (§1.2)",
            optimistic::e10,
            no_gates,
        ),
        (
            "e11",
            "known Δ vs unknown-bound time-adaptive consensus ([3])",
            optimistic::e11,
            optimistic::gates,
        ),
        (
            "e12",
            "wait-free objects from consensus (§1.4, universality)",
            objects::e12,
            no_gates,
        ),
        (
            "e13",
            "bounded-failure consensus with finite registers (§2.1 remark)",
            extensions::e13,
            extensions::gates,
        ),
        (
            "e14",
            "memory-fault sensitivity: timing vs memory failures (§4)",
            extensions::e14,
            no_gates,
        ),
        (
            "e15",
            "busy-waiting profile — the local-spinning gap (§4)",
            extensions::e15,
            no_gates,
        ),
        (
            "e16",
            "heterogeneous per-process optimistic(Δ) estimates (§1.2)",
            optimistic::e16,
            no_gates,
        ),
        (
            "e17",
            "the §1.3 resilience definition as an executable verdict",
            extensions::e17,
            extensions::assessment_gates,
        ),
        (
            "modelcheck",
            "DPOR + symmetry reduction factors on the theorem workloads (E20)",
            modelcheck::modelcheck,
            modelcheck::gates,
        ),
        (
            "net",
            "quorum-register stack: ABD round-trip costs and partition-heal convergence",
            net::net,
            net::gates,
        ),
        (
            "recovery",
            "crash-recovery: recovery latency by crash site, adaptive passage cost, seeded replay (E21)",
            recovery::recovery,
            recovery::gates,
        ),
        (
            "service",
            "sharded object service: throughput at scale, flat-combining speedup, under-load sampling verdicts, keyed apply cost (E22)",
            service::service,
            service::gates,
        ),
        (
            "obs",
            "live observability: collector overhead off/passive/full, stage latency tracks, online monitor verdicts (E23)",
            obs::obs,
            obs::gates,
        ),
        (
            "log",
            "replicated log: commit pipelining speedup, batch/window sweep, audit + mutant verdicts (E24)",
            log::log,
            log::gates,
        ),
        (
            "sim",
            "simulator scale: wheel-vs-heap events/sec, 10^6-process Δ-sweep storm, differential verdicts (E25)",
            sim_scale::sim,
            sim_scale::gates,
        ),
    ]
}

/// The harness: runs each selected experiment, prints its tables, writes
/// `BENCH_<id>.json` into `json_dir` if one is given, and checks the
/// experiment's gates on the tables it just built — one `ok`/`FAIL`
/// line per gate. Returns the process exit status: 0 iff every gate
/// held and every file was written.
pub fn run_and_check(selected: &[&Experiment], json_dir: Option<&Path>) -> i32 {
    let mut status = 0;
    for (id, desc, run, gates) in selected {
        let start = Instant::now();
        eprintln!("[{id}] {desc} ...");
        let tables = run();
        for table in &tables {
            println!("{table}");
        }
        if let Some(dir) = json_dir {
            let doc = Json::obj([
                ("experiment", Json::str(*id)),
                ("description", Json::str(*desc)),
                (
                    "tables",
                    Json::Arr(tables.iter().map(|t| t.to_json()).collect()),
                ),
            ]);
            let path = dir.join(format!("BENCH_{id}.json"));
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.to_string()))
            {
                Ok(()) => eprintln!("[{id}] wrote {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    status = 1;
                }
            }
        }
        for gate in gates(&tables) {
            match gate.outcome {
                Ok(()) => println!("ok   {}", gate.name),
                Err(why) => {
                    println!("FAIL {} — {why}", gate.name);
                    status = 1;
                }
            }
        }
        eprintln!("[{id}] done in {:.1?}\n", start.elapsed());
    }
    status
}

/// Fixtures for the per-experiment gate tests: a hand-written table set
/// that passes every gate, doctored one cell (or row) at a time.
#[cfg(test)]
pub(crate) mod testkit {
    use super::Gates;
    use crate::Table;

    /// A table from `|`-separated header and row lines.
    pub fn table(id: &'static str, header: &str, rows: &[&str]) -> Table {
        let split =
            |line: &str| -> Vec<String> { line.split('|').map(|c| c.trim().into()).collect() };
        let columns = split(header);
        let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
        let mut t = Table::new(id, "fixture", &columns);
        for row in rows {
            t.row(split(row));
        }
        t
    }

    /// How one mutant differs from the passing fixture.
    #[derive(PartialEq)]
    pub enum Doctor {
        /// Overwrite the cell at (row index, column name).
        Set(usize, &'static str, &'static str),
        /// Remove the row at this index.
        DropRow(usize),
        /// Remove every row.
        Clear,
    }

    /// The fixture passes every gate; each doctoring listed under a gate
    /// — applied alone to the table the gate is named after — fails that
    /// gate and no other, unless it is listed under several gates on the
    /// same table, when it fails exactly those; every gate has one; and
    /// with no tables at all every gate fails naming the missing table.
    pub fn assert_gates_reject(gates: Gates, fixture: &[Table], mutants: &[(&str, &[Doctor])]) {
        for g in gates(fixture) {
            assert_eq!(g.outcome, Ok(()), "fixture must pass {}", g.name);
        }
        fn table_of(gate: &str) -> &str {
            gate.split('.')
                .next()
                .expect("gate names start with a table id")
        }
        for (gate, doctors) in mutants {
            let id = table_of(gate);
            for (i, doctor) in doctors.iter().enumerate() {
                let mut listed: Vec<&str> = mutants
                    .iter()
                    .filter(|(g, ds)| table_of(g) == id && ds.contains(doctor))
                    .map(|(g, _)| *g)
                    .collect();
                listed.sort_unstable();
                let mut tables = fixture.to_vec();
                let t = tables
                    .iter_mut()
                    .find(|t| t.id == id)
                    .expect("fixture table");
                match *doctor {
                    Doctor::Set(row, col, val) => {
                        let col = t.column(col).expect("fixture column");
                        t.rows[row][col] = val.into();
                    }
                    Doctor::DropRow(row) => drop(t.rows.remove(row)),
                    Doctor::Clear => t.rows.clear(),
                }
                let mut failed: Vec<&str> = gates(&tables)
                    .iter()
                    .filter(|g| g.outcome.is_err())
                    .map(|g| g.name)
                    .collect();
                failed.sort_unstable();
                assert_eq!(failed, listed, "mutant {i} of {gate}");
            }
        }
        for g in gates(fixture) {
            assert!(
                mutants.iter().any(|(name, ..)| *name == g.name),
                "gate {} has no mutant",
                g.name
            );
        }
        for g in gates(&[]) {
            let why = g.outcome.expect_err("no tables, no pass");
            assert!(why.starts_with("no table "), "{}: {why}", g.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::gate;

    #[test]
    fn registry_ids_are_unique_and_every_gated_experiment_runs_its_gates() {
        let registry = registry();
        let mut ids: Vec<&str> = registry.iter().map(|e| e.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), registry.len(), "duplicate experiment id");
        // The eleven experiments CI gates carry gates; the rest of E1–E17
        // carry none.
        let gated: Vec<&str> = registry
            .iter()
            .filter(|e| !(e.3)(&[]).is_empty())
            .map(|e| e.0)
            .collect();
        assert_eq!(
            gated,
            [
                "e6",
                "e11",
                "e13",
                "e17",
                "modelcheck",
                "net",
                "recovery",
                "service",
                "obs",
                "log",
                "sim"
            ]
        );

        // A stub through the harness's own code path: the exit status is
        // the gate verdict.
        fn no_tables() -> Vec<Table> {
            Vec::new()
        }
        fn holds(_: &[Table]) -> Vec<GateResult> {
            vec![gate("stub.holds", || Ok(()))]
        }
        fn fails(_: &[Table]) -> Vec<GateResult> {
            vec![gate("stub.fails", || Err("doctored".into()))]
        }
        let passing: Experiment = ("stub", "passing stub", no_tables, holds);
        let failing: Experiment = ("stub", "failing stub", no_tables, fails);
        assert_eq!(run_and_check(&[&passing], None), 0);
        assert_eq!(run_and_check(&[&failing], None), 1);
        assert_eq!(run_and_check(&[&passing, &failing, &passing], None), 1);
    }
}
