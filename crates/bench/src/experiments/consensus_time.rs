//! E1–E4: the timing claims of Theorem 2.1 for Algorithm 1.

use super::delta;
use crate::table::in_deltas;
use crate::Table;
use tfr_core::consensus::ConsensusSpec;
use tfr_registers::bank::ArrayBank;
use tfr_registers::spec::run_solo;
use tfr_registers::{ProcId, Ticks};
use tfr_sim::metrics::consensus_stats;
use tfr_sim::timing::{standard_no_failures, CrashSchedule, FailureWindows, Scripted, Window};
use tfr_sim::{RunConfig, Sim};

fn mixed_inputs(n: usize, seed: u64) -> Vec<bool> {
    (0..n)
        .map(|i| (i as u64 + seed).is_multiple_of(2))
        .collect()
}

/// E1 — Theorem 2.1(1): without timing failures, every process decides
/// within 15·Δ (the first two rounds).
pub fn e1() -> Vec<Table> {
    let d = delta();
    let seeds = 200u64;
    let mut t = Table::new(
        "E1",
        "decision time without timing failures (claim: ≤ 15Δ)",
        &["n", "runs", "mean", "p99", "max", "max rounds", "≤15Δ"],
    );
    for n in [2usize, 4, 8, 16, 32] {
        let mut times: Vec<u64> = Vec::new();
        let mut max_rounds = 0;
        for seed in 0..seeds {
            let spec = ConsensusSpec::new(mixed_inputs(n, seed)).with_delta(d.ticks());
            let result = Sim::new(spec, RunConfig::new(n, d), standard_no_failures(d, seed)).run();
            let stats = consensus_stats(&result);
            assert!(
                stats.agreement,
                "E1: agreement violated (n={n}, seed={seed})"
            );
            times.push(stats.all_decided_by.expect("all decide without failures").0);
            max_rounds = max_rounds.max(stats.max_round);
        }
        times.sort_unstable();
        let mean = times.iter().sum::<u64>() as f64 / times.len() as f64;
        let p99 = times[times.len() * 99 / 100];
        let max = *times.last().unwrap();
        t.row(vec![
            n.to_string(),
            seeds.to_string(),
            format!("{:.2}Δ", mean / d.ticks().0 as f64),
            in_deltas(Ticks(p99), d),
            in_deltas(Ticks(max), d),
            max_rounds.to_string(),
            (max <= d.times(15).0).to_string(),
        ]);
    }
    t.note("paper: decides within 15Δ (first two rounds) regardless of n");
    vec![t]
}

/// E2 — Theorem 2.1(4): a solo process decides after a constant number of
/// its own steps, 6 here (the paper's 7 less the loop check after
/// `decide := v`), without executing a delay statement, regardless of
/// timing failures.
pub fn e2() -> Vec<Table> {
    let d = delta();
    let mut t = Table::new(
        "E2",
        "solo fast path (claim: 6 shared accesses, 0 delays, any timing)",
        &[
            "step duration",
            "input",
            "shared accesses",
            "delays",
            "decided own input",
        ],
    );
    // Step-count analysis is timing-independent: run_solo counts accesses.
    for input in [false, true] {
        let mut bank = ArrayBank::new();
        let run = run_solo(&ConsensusSpec::new(vec![input]), ProcId(0), &mut bank, 50);
        t.row(vec![
            "n/a (step count)".into(),
            input.to_string(),
            run.shared_accesses.to_string(),
            run.delays.to_string(),
            (run.decision() == Some(input as u64)).to_string(),
        ]);
    }
    // Timed confirmation: even with every access suffering a 50Δ timing
    // failure, the solo process decides in 6 steps (6 × duration).
    for factor in [1u64, 10, 50] {
        let dur = Ticks(d.ticks().0 * factor);
        let spec = ConsensusSpec::new(vec![true]);
        let result = Sim::new(spec, RunConfig::new(1, d), Scripted::new(dur)).run();
        let stats = consensus_stats(&result);
        t.row(vec![
            format!("{factor}Δ each"),
            "true".into(),
            (result.steps).to_string(),
            "0".into(),
            (stats.decided_value == Some(1)).to_string(),
        ]);
    }
    t.note("6 steps: loop check, x[r,v]:=1, read y, y:=v, read x[r,v̄], decide:=v (then decide v)");
    vec![t]
}

/// E3 — Theorem 2.1(2): if timing failures stop at (the beginning of)
/// round r, every process decides by the end of round r + 1.
pub fn e3() -> Vec<Table> {
    let d = delta();
    let seeds = 100u64;
    let mut t = Table::new(
        "E3",
        "recovery after a failure window (claim: decide by round r+1)",
        &[
            "n",
            "window (Δ)",
            "runs",
            "max r at stop",
            "max decide round",
            "r+1 bound held",
        ],
    );
    for n in [2usize, 4, 8] {
        for window_deltas in [5u64, 20, 60] {
            let window_end = Ticks(d.ticks().0 * window_deltas);
            let mut max_rstop = 0u64;
            let mut max_decide_round = 0u64;
            let mut held = true;
            for seed in 0..seeds {
                let spec = ConsensusSpec::new(mixed_inputs(n, seed)).with_delta(d.ticks());
                let model = FailureWindows::new(
                    standard_no_failures(d, seed),
                    vec![Window {
                        from: Ticks::ZERO,
                        to: window_end,
                        pids: None,
                        inflated: Ticks(d.ticks().0 * 4),
                    }],
                );
                let result = Sim::new(spec, RunConfig::new(n, d), model).run();
                let stats = consensus_stats(&result);
                assert!(stats.agreement, "E3: agreement violated");
                assert!(
                    stats.all_decided_by.is_some(),
                    "E3: no decision after recovery"
                );
                // r = highest round in progress when failures stop.
                let rstop = result
                    .events(|o| match o {
                        tfr_registers::spec::Obs::StartedRound(r) => Some(*r),
                        _ => None,
                    })
                    .filter(|(time, _, _)| *time <= window_end)
                    .map(|(_, _, r)| r)
                    .max()
                    .unwrap_or(1);
                max_rstop = max_rstop.max(rstop);
                max_decide_round = max_decide_round.max(stats.max_round);
                if stats.max_round > rstop + 1 {
                    held = false;
                }
            }
            t.row(vec![
                n.to_string(),
                window_deltas.to_string(),
                seeds.to_string(),
                max_rstop.to_string(),
                max_decide_round.to_string(),
                held.to_string(),
            ]);
        }
    }
    t.note("r = highest round started before the failure window closed");

    // E3b: a deterministic adversary that forces the y-register split for
    // exactly R rounds (p1's write to y[r] suffers a timing failure while
    // p0 adopts its own value before that write lands), then stops. The
    // claim predicts a decision within two clean rounds of the failures
    // stopping mid-round R+1.
    let mut adv = Table::new(
        "E3b",
        "adversarially forced conflict rounds, then clean (claim: decide ≤ r+1)",
        &[
            "forced rounds R",
            "r (first clean round)",
            "decide round",
            "decide ≤ r+1",
        ],
    );
    for forced in 1u64..=6 {
        let mut model = Scripted::new(Ticks(10));
        for k in 0..forced {
            // Per-round step indices: 7k + {0: loop check, 1: write x,
            // 2: read y, 3: write y, 4: read x̄, 5: delay, 6: adopt y}.
            if k > 0 {
                model = model.set(ProcId(0), 7 * k, tfr_sim::timing::Fate::Take(Ticks(260)));
            }
            model = model
                .set(
                    ProcId(0),
                    7 * k + 6,
                    tfr_sim::timing::Fate::Take(Ticks(150)),
                )
                .set(
                    ProcId(1),
                    7 * k + 3,
                    tfr_sim::timing::Fate::Take(Ticks(400)),
                );
        }
        let spec = ConsensusSpec::new(vec![false, true]).with_delta(d.ticks());
        let result = Sim::new(spec, RunConfig::new(2, d), model).run();
        let stats = consensus_stats(&result);
        assert!(stats.agreement, "E3b: agreement violated at R={forced}");
        assert!(
            stats.all_decided_by.is_some(),
            "E3b: no decision at R={forced}"
        );
        let r = forced + 1;
        adv.row(vec![
            forced.to_string(),
            r.to_string(),
            stats.max_round.to_string(),
            (stats.max_round <= r + 1).to_string(),
        ]);
    }
    adv.note("each forced round: both processes see y=⊥, p1's y-write outlasts Δ, p0 adopts early");
    vec![t, adv]
}

/// E4 — Theorem 2.4: wait-freedom — non-faulty processes decide no matter
/// how many others crash (even mid-protocol).
pub fn e4() -> Vec<Table> {
    let d = delta();
    let seeds = 100u64;
    let mut t = Table::new(
        "E4",
        "wait-freedom under crashes (claim: survivors always decide)",
        &[
            "n",
            "crashed",
            "runs",
            "survivors decided",
            "max decision time",
        ],
    );
    for n in [4usize, 8] {
        for k in [0usize, 1, n / 2, n - 1] {
            let mut max_time = Ticks::ZERO;
            let mut all_ok = true;
            for seed in 0..seeds {
                let spec = ConsensusSpec::new(mixed_inputs(n, seed)).with_delta(d.ticks());
                // Crash the k highest-numbered processes at staggered,
                // seed-dependent instants (including mid-round).
                let crashes = (n - k..n)
                    .map(|i| {
                        (
                            ProcId(i),
                            Ticks((seed * 97 + i as u64 * 131) % (d.ticks().0 * 10)),
                        )
                    })
                    .collect();
                let model = CrashSchedule::new(standard_no_failures(d, seed), crashes);
                let result = Sim::new(spec, RunConfig::new(n, d), model).run();
                let stats = consensus_stats(&result);
                assert!(stats.agreement, "E4: agreement violated");
                for i in 0..n - k {
                    match result.decision_of(ProcId(i)) {
                        Some((time, _)) => max_time = Ticks(max_time.0.max(time.0)),
                        None => all_ok = false,
                    }
                }
            }
            t.row(vec![
                n.to_string(),
                k.to_string(),
                seeds.to_string(),
                all_ok.to_string(),
                in_deltas(max_time, d),
            ]);
        }
    }
    t.note("crashed processes stop mid-protocol; their pending writes never linearize");
    vec![t]
}
