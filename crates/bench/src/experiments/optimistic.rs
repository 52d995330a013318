//! E10 and E11: the practical side of `optimistic(Δ)` (§1.2, §3.3) and
//! the comparison with the unknown-bound time-adaptive algorithm \[3\].

use super::delta;
use crate::table::{by_id, gate, in_deltas, GateResult};
use crate::Table;
use tfr_asynclock::workload::LockLoop;
use tfr_core::adaptive::AimdPolicy;
use tfr_core::consensus::{ConsensusSpec, DelaySchedule};
use tfr_core::mutex::resilient::standard_resilient_spec;
use tfr_registers::{Delta, ProcId, Ticks};
use tfr_sim::metrics::{consensus_stats, mutex_stats};
use tfr_sim::timing::{standard_no_failures, Fate, Scripted};
use tfr_sim::{RunConfig, Sim};

/// E10 — sweep the `optimistic(Δ)` estimate against a fixed true Δ, for
/// both consensus (decision time, rounds) and Algorithm 3 (ψ); then show
/// the AIMD estimator homing in on a good estimate under a heavy-tailed
/// access-time distribution.
pub fn e10() -> Vec<Table> {
    let d = delta(); // true Δ = 100 ticks; accesses uniform in [10, 100]
    let seeds = 150u64;

    let mut cons = Table::new(
        "E10a",
        "consensus with optimistic delay estimates (true Δ = 100t)",
        &[
            "estimate",
            "est/Δ",
            "mean decision",
            "max decision",
            "mean rounds",
            "agreement ok",
        ],
    );
    for est in [10u64, 25, 50, 100, 200, 400] {
        let n = 4;
        let mut total = 0u64;
        let mut max = 0u64;
        let mut rounds = 0u64;
        let mut safe = true;
        for seed in 0..seeds {
            let inputs: Vec<bool> = (0..n)
                .map(|i| (i as u64 + seed).is_multiple_of(2))
                .collect();
            let spec = ConsensusSpec::new(inputs).with_delta(Ticks(est));
            let result = Sim::new(spec, RunConfig::new(n, d), standard_no_failures(d, seed)).run();
            let stats = consensus_stats(&result);
            safe &= stats.agreement;
            let t = stats
                .all_decided_by
                .expect("random fair schedules decide")
                .0;
            total += t;
            max = max.max(t);
            rounds += stats.max_round;
        }
        cons.row(vec![
            format!("{est}t"),
            format!("{:.2}", est as f64 / d.ticks().0 as f64),
            format!("{:.2}Δ", total as f64 / seeds as f64 / d.ticks().0 as f64),
            in_deltas(Ticks(max), d),
            format!("{:.2}", rounds as f64 / seeds as f64),
            safe.to_string(),
        ]);
    }
    cons.note("under-estimates cost extra rounds, never safety; over-estimates cost idle delay");

    let mut mx = Table::new(
        "E10b",
        "Algorithm 3 with optimistic delay estimates (true Δ = 100t)",
        &["estimate", "est/Δ", "ψ", "CS entries", "ME ok"],
    );
    for est in [10u64, 25, 50, 100, 200, 400] {
        let n = 4;
        let automaton = LockLoop::new(standard_resilient_spec(n, 0, Ticks(est)), 30)
            .cs_ticks(Ticks(20))
            .ncs_ticks(Ticks(30));
        let result = Sim::new(automaton, RunConfig::new(n, d), standard_no_failures(d, 7)).run();
        let stats = mutex_stats(&result, Ticks::ZERO);
        mx.row(vec![
            format!("{est}t"),
            format!("{:.2}", est as f64 / d.ticks().0 as f64),
            in_deltas(stats.longest_starved_interval, d),
            stats.cs_entries.to_string(),
            (!stats.mutual_exclusion_violated).to_string(),
        ]);
    }
    mx.note("with est < Δ the Fischer stage retries more (timing failures by choice) — still safe");

    // AIMD equilibrium: feed the estimator synthetic access times (fast
    // common case 20–60t, occasional spikes to 1200t) at different spike
    // rates. With rare spikes the estimator settles near the fast common
    // case — exactly the paper's point that optimistic(Δ) can sit far
    // below the pessimistic true Δ; as spikes become frequent it backs
    // off toward the worst case on its own.
    let mut aimd = Table::new(
        "E10c",
        "AIMD optimistic(Δ) equilibrium vs timing-failure (spike) rate",
        &[
            "spike rate",
            "start",
            "estimate after 5000 ops",
            "retry rate (last 1000)",
        ],
    );
    for spike_pct in [0u64, 1, 5, 20] {
        let mut policy = AimdPolicy::new(1_200, 10, 2_400, 25, 8);
        let mut rng_state = 0x9E3779B97F4A7C15u64 ^ spike_pct;
        let mut rand = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        let mut late_failures = 0u64;
        for op in 0..5_000u64 {
            let access = if rand() % 100 < spike_pct {
                1_200
            } else {
                20 + rand() % 40
            };
            if access > policy.current() {
                policy.on_failure();
                if op >= 4_000 {
                    late_failures += 1;
                }
            } else {
                policy.on_success();
            }
        }
        aimd.row(vec![
            format!("{spike_pct}%"),
            "1200t".into(),
            format!("{}t", policy.current()),
            format!("{:.1}%", late_failures as f64 / 10.0),
        ]);
    }
    aimd.note("common-case access 20–60t, spikes 1200t; the pessimistic true Δ would be ≥1200t");
    aimd.note("rare spikes ⇒ estimate settles near the fast common case (the optimistic(Δ) win);");
    aimd.note("resilience makes the residual retry rate a performance knob, not a safety risk");
    vec![cons, mx, aimd]
}

/// E11 — knowing Δ vs adapting to an unknown bound, under a **legal
/// adversary** (every access duration ≤ the true Δ — no timing failures).
/// The adversary splits round k of the two-process protocol whenever the
/// algorithm's round-k delay `d_k` satisfies `d_k + 40 ≤ Δ`: it makes
/// p1's write to `y[k]` land after p0's (early) adoption read. Against
/// Algorithm 1 (delay = Δ, known) no round is splittable — this is the
/// paper's possibility result. Against the \[3\]-style doubling schedule the
/// adversary forces ~log₂(Δ/d₀) rounds; against a fixed wrong guess it
/// forces rounds forever (no c·Δ bound exists in the unknown-Δ model).
pub fn e11() -> Vec<Table> {
    let n = 2usize;
    let mut t = Table::new(
        "E11",
        "legal adversary: known Δ (Alg 1) vs time-adaptive (AAT [3]) vs fixed guess",
        &[
            "true Δ",
            "algorithm",
            "rounds to decide",
            "decision time",
            "decided",
        ],
    );
    let round_cap = 200u64;
    for true_delta in [100u64, 200, 400, 800] {
        let d = Delta::from_ticks(true_delta);
        // Each algorithm is Algorithm 1 with its per-round delay schedule,
        // which the adversary knows; the fixed guess gets a round cap
        // past the script's.
        let algorithms = [
            (ALG1, DelaySchedule::fixed(d.ticks()), u64::MAX),
            (AAT, DelaySchedule::doubling(Ticks(5)), u64::MAX),
            (FIXED, DelaySchedule::fixed(Ticks(5)), round_cap + 10),
        ];
        for (alg, schedule, max_rounds) in algorithms {
            // Build the legal split schedule: for each splittable round,
            // p1's y-write takes d_k + 40 (≤ Δ, legal) so it lands after
            // p0 adopts; p0's next loop check is stretched (≤ Δ, legal)
            // to keep the rounds phase-locked.
            let mut model = Scripted::new(Ticks(10));
            for k in 0..round_cap {
                let dk = schedule.delay_for_round(k + 1).0;
                if dk + 40 > true_delta {
                    break;
                }
                model = model
                    .set(ProcId(1), 7 * k + 3, Fate::Take(Ticks(dk + 40)))
                    .set(ProcId(0), 7 * (k + 1), Fate::Take(Ticks(40 + dk)));
            }
            let config = RunConfig::new(n, d)
                .max_steps(500_000)
                .max_time(d.times(100_000));
            let spec = ConsensusSpec::new(vec![false, true])
                .with_schedule(schedule)
                .max_rounds(max_rounds);
            let stats = consensus_stats(&Sim::new(spec, config, model).run());
            assert!(stats.agreement, "E11: agreement violated");
            match stats.all_decided_by {
                Some(tm) => t.row(vec![
                    format!("{true_delta}t"),
                    alg.into(),
                    if stats.max_round > round_cap {
                        format!("> {round_cap} (script cap)")
                    } else {
                        stats.max_round.to_string()
                    },
                    format!("{:.2}Δ", tm.0 as f64 / true_delta as f64),
                    if stats.max_round > round_cap {
                        "only once the adversary script ends".into()
                    } else {
                        "yes".into()
                    },
                ]),
                None => t.row(vec![
                    format!("{true_delta}t"),
                    alg.into(),
                    format!("> {round_cap}"),
                    "—".into(),
                    "no (livelock under the legal adversary)".into(),
                ]),
            };
        }
    }
    t.note("adversary is LEGAL: every access ≤ Δ, no timing failures anywhere");
    t.note("claim: known Δ decides in O(1) rounds = c·Δ; doubling pays ~log₂(Δ/5) rounds;");
    t.note("a fixed under-estimate never decides — the [3] lower bound in action");
    vec![t]
}

/// E11's algorithms, as its `algorithm` column names them.
const ALG1: &str = "alg1 (knows Δ)";
const AAT: &str = "aat (doubling from 5t)";
const FIXED: &str = "fixed guess 5t";

/// The gates on E11: the adversary is scripted, so every count is a
/// deterministic function of the schedules.
pub fn gates(tables: &[Table]) -> Vec<GateResult> {
    let rows = |alg| by_id(tables, "E11")?.rows_where(&[("algorithm", alg)]);
    vec![
        // Knowing Δ, no round is splittable: decided in round 2.
        gate("E11.alg1_decides_in_2_rounds", || {
            for row in rows(ALG1)? {
                let held = row.text("rounds to decide")? == "2" && row.text("decided")? == "yes";
                row.expect(held, "2 rounds to decide, decided yes")?;
            }
            Ok(())
        }),
        // The doubling schedule decides, paying more rounds the larger the
        // true Δ (rows ascend in Δ).
        gate("E11.doubling_decides_in_growing_rounds", || {
            let mut fewest = 3.0;
            for row in rows(AAT)? {
                let rounds = row.num("rounds to decide")?;
                row.expect(
                    rounds >= fewest && row.text("decided")? == "yes",
                    "decided yes, in more than 2 rounds and no fewer than at a smaller Δ",
                )?;
                fewest = rounds;
            }
            Ok(())
        }),
        // A fixed under-estimate never decides under the adversary.
        gate("E11.fixed_guess_never_decides", || {
            for row in rows(FIXED)? {
                row.expect(row.text("decided")? != "yes", "decided other than yes")?;
            }
            Ok(())
        }),
    ]
}

/// E16 — heterogeneous fleets (§1.2: the estimate "should be tuned for
/// each individual machine architecture"): some processes run optimistic
/// estimates, some conservative, against the same true Δ. Measures who
/// pays — per-group decision latency — and confirms safety is indifferent.
pub fn e16() -> Vec<Table> {
    let d = delta();
    let seeds = 150u64;
    let n = 4usize;
    let mut t = Table::new(
        "E16",
        "heterogeneous optimistic(Δ) estimates (true Δ = 100t, n = 4)",
        &[
            "estimates (per process)",
            "mean decision, optimists",
            "mean decision, conservatives",
            "mean rounds",
            "agreement ok",
        ],
    );
    // (label, per-process estimates in ticks, which pids count as optimists)
    let configs: Vec<(&str, Vec<u64>, Vec<usize>)> = vec![
        ("all 100t (homogeneous)", vec![100; 4], vec![]),
        ("all 10t (all optimistic)", vec![10; 4], vec![0, 1, 2, 3]),
        ("10,10,100,100 (split)", vec![10, 10, 100, 100], vec![0, 1]),
        (
            "10,100,100,100 (one optimist)",
            vec![10, 100, 100, 100],
            vec![0],
        ),
        (
            "10,400,400,400 (optimist vs cautious)",
            vec![10, 400, 400, 400],
            vec![0],
        ),
    ];
    for (label, estimates, optimists) in configs {
        let mut opt_total = 0u64;
        let mut opt_count = 0u64;
        let mut cons_total = 0u64;
        let mut cons_count = 0u64;
        let mut rounds = 0u64;
        let mut safe = true;
        for seed in 0..seeds {
            let inputs: Vec<bool> = (0..n)
                .map(|i| (i as u64 + seed).is_multiple_of(2))
                .collect();
            let spec = ConsensusSpec::new(inputs)
                .with_per_process_deltas(estimates.iter().map(|&e| Ticks(e)).collect());
            let result = Sim::new(spec, RunConfig::new(n, d), standard_no_failures(d, seed)).run();
            let stats = consensus_stats(&result);
            safe &= stats.agreement;
            rounds += stats.max_round;
            for p in 0..n {
                if let Some((time, _)) = result.decision_of(ProcId(p)) {
                    if optimists.contains(&p) {
                        opt_total += time.0;
                        opt_count += 1;
                    } else {
                        cons_total += time.0;
                        cons_count += 1;
                    }
                }
            }
        }
        let fmt_group = |total: u64, count: u64| {
            if count == 0 {
                "—".to_string()
            } else {
                format!("{:.2}Δ", total as f64 / count as f64 / d.ticks().0 as f64)
            }
        };
        t.row(vec![
            label.into(),
            fmt_group(opt_total, opt_count),
            fmt_group(cons_total, cons_count),
            format!("{:.2}", rounds as f64 / seeds as f64),
            safe.to_string(),
        ]);
    }
    t.note("optimists skip delay idle time and often decide first; conservative peers adopt");
    t.note("their decision — mixed fleets are safe and the cautious pay only their own delays");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::gates;
    use crate::experiments::testkit::{assert_gates_reject, table, Doctor::*};

    #[test]
    fn every_optimistic_gate_rejects_its_mutant() {
        let fixture = [table(
            "E11",
            "true Δ | algorithm | rounds to decide | decided",
            &[
                "100t | alg1 (knows Δ) | 2 | yes",
                "100t | aat (doubling from 5t) | 6 | yes",
                "100t | fixed guess 5t | > 200 (script cap) | only once the adversary script ends",
                "200t | alg1 (knows Δ) | 2 | yes",
                "200t | aat (doubling from 5t) | 8 | yes",
                "200t | fixed guess 5t | > 200 | no (livelock under the legal adversary)",
            ],
        )];
        assert_gates_reject(
            gates,
            &fixture,
            &[
                (
                    "E11.alg1_decides_in_2_rounds",
                    &[Set(3, "rounds to decide", "3"), Set(0, "decided", "no")],
                ),
                (
                    "E11.doubling_decides_in_growing_rounds",
                    &[
                        Set(1, "rounds to decide", "2"),
                        Set(4, "rounds to decide", "5"),
                        Set(4, "decided", "no"),
                    ],
                ),
                ("E11.fixed_guess_never_decides", &[Set(5, "decided", "yes")]),
            ],
        );
    }
}
