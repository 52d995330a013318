//! `ledger check`: the A/A comparator, and the agreement between
//! `BENCHMARK.json` and the names the binary emits.

use crate::metrics::{Source, END_TO_END, PER_LAYER};
use crate::workloads;
use tfr_telemetry::Json;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;
/// The benchmark's directory (`paths`).
pub const PATH: &str = "ledger";

/// A name the benchmark contract accepts: at most 64 letters, digits,
/// `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// What `BENCHMARK.json` must say, built from the catalogue.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--quiet",
                "--release",
                "--offline",
                "--manifest-path",
                "ledger/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strs(&[PATH])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Problems with `text` as this binary's `BENCHMARK.json`; empty when
/// the file and the emitted names agree.
pub fn schema_problems(text: &str) -> Vec<String> {
    let file = match Json::parse(text) {
        Ok(file) => file,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let want = benchmark_json();
    let mut problems = Vec::new();
    let (Json::Obj(file_pairs), Json::Obj(want_pairs)) = (&file, &want) else {
        return vec!["BENCHMARK.json is not an object".to_string()];
    };
    for (key, _) in file_pairs {
        if want.get(key).is_none() {
            problems.push(format!("unexpected key {key:?}"));
        }
    }
    for (key, want_value) in want_pairs {
        let Some(got) = file.get(key) else {
            problems.push(format!("missing key {key:?}"));
            continue;
        };
        match (got.as_arr(), want_value.as_arr()) {
            // Lists of named entries: report by name what is missing,
            // extra or different.
            (Some(got), Some(want)) if want.iter().all(|w| w.get("name").is_some()) => {
                let name = |j: &Json| j.get("name").and_then(Json::as_str).map(str::to_string);
                for w in want {
                    match got.iter().find(|g| name(g) == name(w)) {
                        None => problems.push(format!(
                            "{key}: {} is emitted but not listed",
                            name(w).unwrap_or_default()
                        )),
                        Some(g) if g != w => problems.push(format!(
                            "{key}: {} is listed as {g}, emitted as {w}",
                            name(w).unwrap_or_default()
                        )),
                        Some(_) => {}
                    }
                }
                for g in got {
                    if !want.iter().any(|w| name(w) == name(g)) {
                        problems.push(format!("{key}: {g} is listed but never emitted"));
                    }
                    if !name(g).is_some_and(|n| valid_name(&n)) {
                        problems.push(format!("{key}: {g} has no valid name"));
                    }
                }
            }
            _ if got != want_value => {
                problems.push(format!("{key} is {got}, expected {want_value}"));
            }
            _ => {}
        }
    }
    if END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        problems.push("too many metrics for the contract".to_string());
    }
    problems
}

fn metric(file: &Json, name: &str) -> Option<f64> {
    file.get("metrics")?.get(name)?.get("value")?.as_num()
}

/// Problems found comparing two `--out` files of the same workload run
/// twice on one commit: an end-to-end metric further apart than its
/// bound, an exact-repeat count that differs, or a failed output check.
pub fn aa_problems(a: &Json, b: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let field = |j: &Json, k: &str| j.get(k).cloned().unwrap_or(Json::Null);
    for key in ["workload", "traced"] {
        if field(a, key) != field(b, key) {
            problems.push(format!(
                "the runs differ in {key}: {} and {}",
                field(a, key),
                field(b, key)
            ));
        }
    }
    if !problems.is_empty() {
        return problems;
    }
    for (label, run) in [("first", a), ("second", b)] {
        if field(run, "correct") != Json::Bool(true) {
            problems.push(format!("the {label} run failed its output checks"));
        }
    }
    for m in END_TO_END {
        if let (Some(x), Some(y)) = (metric(a, m.name), metric(b, m.name)) {
            let apart = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            if apart > m.bound {
                problems.push(format!(
                    "{}: {x} and {y} are {:.1}% apart, bound {:.0}%",
                    m.name,
                    apart * 100.0,
                    m.bound * 100.0
                ));
            }
        }
    }
    let workload = field(a, "workload");
    let same_seed = field(a, "seed") == field(b, "seed");
    for m in PER_LAYER {
        let Source::Exact(on) = m.source else {
            continue;
        };
        if !same_seed || !on.iter().any(|w| Json::str(*w) == workload) {
            continue;
        }
        if let (Some(x), Some(y)) = (metric(a, m.name), metric(b, m.name)) {
            if x != y {
                problems.push(format!("{} must repeat exactly: {x} and {y}", m.name));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(workload: &str, seed: u64, metrics: &[(&str, f64)]) -> Json {
        Json::obj([
            ("correct", Json::Bool(true)),
            ("workload", Json::str(workload)),
            ("seed", Json::str(seed.to_string())),
            ("traced", Json::Bool(false)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .iter()
                        .map(|(n, v)| (n.to_string(), Json::obj([("value", Json::Num(*v))])))
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn aa_holds_end_to_end_metrics_to_their_bounds() {
        let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        let (rate, rss) = (bound("ops_per_s"), bound("peak_rss_mb"));
        let runs = |r: f64, m: f64| out("svc_solo", 1, &[("ops_per_s", r), ("peak_rss_mb", m)]);
        let a = runs(100.0, 200.0);
        let near = runs(100.0 * (1.0 - rate / 2.0), 200.0 * (1.0 + rss / 2.0));
        assert_eq!(aa_problems(&a, &near), Vec::<String>::new());
        let far = runs(100.0 * (1.0 - 2.0 * rate), 200.0);
        let problems = aa_problems(&a, &far);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("ops_per_s"));
        let other = out("svc_quorum", 1, &[]);
        assert!(aa_problems(&a, &other)[0].contains("differ in workload"));
    }

    #[test]
    fn aa_requires_exact_counts_to_repeat_for_one_seed() {
        let a = out("svc_solo", 7, &[("registers.reads_per_op", 12.5)]);
        let b = out("svc_solo", 7, &[("registers.reads_per_op", 12.5625)]);
        assert!(aa_problems(&a, &b)[0].contains("must repeat exactly"));
        // Another seed is another input; on svc_contended the count
        // depends on the race.
        let other_seed = out("svc_solo", 8, &[("registers.reads_per_op", 12.5625)]);
        assert!(aa_problems(&a, &other_seed).is_empty());
        let racy_a = out("svc_contended", 7, &[("registers.reads_per_op", 30.0)]);
        let racy_b = out("svc_contended", 7, &[("registers.reads_per_op", 31.0)]);
        assert!(aa_problems(&racy_a, &racy_b).is_empty());
    }

    #[test]
    fn schema_accepts_its_own_listing_and_names_what_differs() {
        let text = benchmark_json().to_string();
        assert_eq!(schema_problems(&text), Vec::<String>::new());
        let renamed = text.replace("\"trace.overhead\"", "\"trace.cost\"");
        let problems = schema_problems(&renamed);
        assert!(problems
            .iter()
            .any(|p| p.contains("trace.overhead is emitted but not listed")));
        assert!(problems
            .iter()
            .any(|p| p.contains("listed but never emitted")));
        let rebound = text.replace("\"bound\":0.15", "\"bound\":0.5");
        assert!(schema_problems(&rebound)
            .iter()
            .any(|p| p.contains("peak_rss_mb")));
        assert!(!valid_name("has space") && !valid_name(".dot") && valid_name("a.b-c_9"));
    }
}
