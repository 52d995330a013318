//! Experiment harness CLI: regenerates every table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p tfr-bench --bin harness -- all
//! cargo run --release -p tfr-bench --bin harness -- e1 e7
//! cargo run --release -p tfr-bench --bin harness -- --json-dir out all
//! cargo run --release -p tfr-bench --bin harness -- list
//! ```
//!
//! With `--json-dir <dir>`, every selected experiment also writes a
//! machine-readable `BENCH_<id>.json` into `<dir>` alongside the terminal
//! tables, for artifacts and plotting.
//!
//! Running an experiment also checks it: each experiment's gates (see
//! [`tfr_bench::experiments`]) run on the tables it just built, one
//! `ok`/`FAIL` line each, and the exit status is 1 if any failed.

use std::path::PathBuf;
use tfr_bench::experiments;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let registry = experiments::registry();

    // `--json-dir <dir>` may appear anywhere; strip it out of the
    // positional experiment selection.
    let mut json_dir: Option<PathBuf> = None;
    if let Some(i) = args.iter().position(|a| a == "--json-dir") {
        if i + 1 >= args.len() {
            eprintln!("--json-dir needs a directory argument");
            std::process::exit(2);
        }
        json_dir = Some(PathBuf::from(args.remove(i + 1)));
        args.remove(i);
    }

    if args.is_empty() || args[0] == "help" {
        eprintln!("usage: harness [--json-dir <dir>] <all | list | e1 e2 ...>");
        eprintln!("experiments:");
        for (id, desc, ..) in &registry {
            eprintln!("  {id:4} {desc}");
        }
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }

    if args[0] == "list" {
        for (id, desc, ..) in &registry {
            println!("{id:4} {desc}");
        }
        return;
    }

    let selected: Vec<&tfr_bench::experiments::Experiment> = if args[0] == "all" {
        registry.iter().collect()
    } else {
        let mut sel = Vec::new();
        for a in &args {
            match registry.iter().find(|e| e.0 == a) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("unknown experiment: {a} (try `harness list`)");
                    std::process::exit(2);
                }
            }
        }
        sel
    };

    std::process::exit(experiments::run_and_check(&selected, json_dir.as_deref()));
}
