//! `ledger`: the repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! ledger run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--out <file>]
//! ledger list [--json]
//! ledger check <a.json> <b.json>
//! ledger check --schema
//! ```

mod check;
mod metrics;
mod probe;
mod run;
mod stats;
mod workloads;

use std::process::ExitCode;
use tfr_telemetry::Json;
use workloads::Size;

const USAGE: &str = "usage:
  ledger run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--out <file>]
  ledger list [--json]
  ledger check <a.json> <b.json>
  ledger check --schema";

/// The value following `flag`, if the flag is present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let name = flag_value(args, "--workload")?.ok_or("--workload is required")?;
    let workload = workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flag_value(args, "--seed")?
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = match flag_value(args, "--seconds")? {
        None => check::RUN_SECONDS as f64,
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let traced = match flag_value(args, "--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let outcome = run::run(workload, seed, seconds, traced, Size::Full);
    run::print_table(&outcome);
    if let Some(path) = flag_value(args, "--out")? {
        std::fs::write(path, format!("{}\n", outcome.file_json()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.contract_json());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_list(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--json") {
        println!("{}", check::benchmark_json());
        return ExitCode::SUCCESS;
    }
    println!("workloads:");
    for w in workloads::ALL {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload, untraced run):");
    for m in metrics::END_TO_END {
        println!(
            "  {:<14} {:<5} better {:<6} bound {:.0}%",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!("per-layer metrics (traced run; 0 where the layer does no work):");
    for m in metrics::PER_LAYER {
        println!(
            "  {:<32} {:<6} better {:<6} moves {:<20} on {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves,
            m.on
        );
    }
    ExitCode::SUCCESS
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let problems = match args {
        [flag] if flag == "--schema" => check::schema_problems(&read("BENCHMARK.json")?),
        [a, b] => {
            let parse = |path: &str| Json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"));
            check::aa_problems(&parse(a)?, &parse(b)?)
        }
        _ => return Err(USAGE.to_string()),
    };
    for p in &problems {
        println!("{p}");
    }
    Ok(if problems.is_empty() {
        println!("ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "list" => Ok(cmd_list(rest)),
        Some((cmd, rest)) if cmd == "check" => cmd_check(rest),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests;
