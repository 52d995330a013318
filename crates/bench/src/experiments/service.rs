//! SERVICE (E22): the sharded wait-free object service at scale —
//! sustained throughput by client count on both execution stacks,
//! the flat-combining speedup over the per-op baseline, the committed
//! batch-size distribution, and the under-load linearizability sampler's
//! verdicts (the real batcher passes; both seeded combiner mutants are
//! rejected by the same check that certifies it), and on the quorum
//! backend one worker's busy shards sharing quorum rounds.

use crate::table::{by_id, gate, GateResult};
use crate::Table;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfr_core::universal::Counter;
use tfr_net::{NetConfig, Network};
use tfr_registers::ProcId;
use tfr_service::{
    run_load, run_load_native, CombinerKind, LoadConfig, LoadReport, ObjectService, SamplingConfig,
    ServiceConfig,
};
use tfr_telemetry::Trace;

/// One native throughput point.
fn native_cfg(clients: usize, ops_per_client: usize, shards: usize) -> LoadConfig {
    LoadConfig {
        ops_per_client,
        delta: Duration::from_micros(20),
        ..LoadConfig::new(clients, 4, shards)
    }
}

fn fmt_rate(r: &LoadReport) -> String {
    format!("{:.0}", r.ops_per_sec)
}

fn push_throughput_row(t: &mut Table, backend: &str, r: &LoadReport) {
    t.row(vec![
        backend.to_string(),
        r.clients.to_string(),
        r.workers.to_string(),
        r.shards.to_string(),
        r.ops.to_string(),
        fmt_rate(r),
        format!("{:.1}", r.mean_batch_size),
        if r.audit_complete && r.state_ok {
            "ok".into()
        } else {
            "LOST".into()
        },
    ]);
}

/// SERVICE — see module docs.
pub fn service() -> Vec<Table> {
    // -----------------------------------------------------------------
    // Table 1: sustained throughput by client count and backend. Native
    // runs sweep three orders of magnitude of simulated clients; quorum
    // runs keep one op per client (every register access is an ABD
    // majority round-trip, so the interesting axis is client count, not
    // repetition).
    // -----------------------------------------------------------------
    let mut t1 = Table::new(
        "E22a",
        "service throughput by client count and backend (flat-combining)",
        &[
            "backend",
            "clients",
            "workers",
            "shards",
            "ops",
            "ops/sec",
            "mean batch",
            "integrity",
        ],
    );
    for (clients, ops_per_client) in [(1_000, 4), (10_000, 2), (100_000, 1)] {
        let report = run_load_native(&native_cfg(clients, ops_per_client, 4), &Trace::default());
        push_throughput_row(&mut t1, "native", &report);
    }
    for clients in [100usize, 1_000, 10_000] {
        let workers = 2;
        let net = Arc::new(Network::new(NetConfig::new(workers, 3, 0x5eed)));
        let cfg = LoadConfig {
            ops_per_client: 1,
            delta: Duration::from_micros(200),
            ..LoadConfig::new(clients, workers, 2)
        };
        let report = run_load(Arc::new(net.space()), &cfg, &Trace::default());
        push_throughput_row(&mut t1, "net", &report);
    }
    t1.note("Same service, two substrates: native atomics vs ABD majority quorums over the");
    t1.note("message-passing stack — the construction is backend-blind (RegisterSpace).");

    // -----------------------------------------------------------------
    // Table 2: the flat-combining claim — one consensus decision per
    // batch vs one per operation, at 1k clients on the native stack.
    // One run is ~1.5 ms, so one pair is at the mercy of a single
    // scheduler hiccup: run alternated pairs and report the median one.
    // -----------------------------------------------------------------
    const PAIRS: usize = 5;
    let mut t2 = Table::new(
        "E22b",
        "flat-combining vs per-op baseline (native, 1k clients)",
        &[
            "combiner",
            "ops",
            "ops/sec",
            "decisions",
            "mean batch",
            "speedup",
        ],
    );
    let ratio =
        |(flat, per_op): &(LoadReport, LoadReport)| flat.ops_per_sec / per_op.ops_per_sec.max(1e-9);
    let mut pairs: Vec<(LoadReport, LoadReport)> = (0..PAIRS)
        .map(|_| {
            let flat = run_load_native(&native_cfg(1_000, 4, 4), &Trace::default());
            let per_op = run_load_native(
                &LoadConfig {
                    combiner: CombinerKind::PerOp,
                    ..native_cfg(1_000, 4, 4)
                },
                &Trace::default(),
            );
            (flat, per_op)
        })
        .collect();
    pairs.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let (lowest, highest) = (ratio(&pairs[0]), ratio(&pairs[PAIRS - 1]));
    let median = pairs.swap_remove(PAIRS / 2);
    let speedup = ratio(&median);
    let (flat, per_op) = median;
    for (r, s) in [(&flat, format!("{speedup:.2}")), (&per_op, "1.00".into())] {
        t2.row(vec![
            r.combiner.name().to_string(),
            r.ops.to_string(),
            fmt_rate(r),
            r.batches.to_string(),
            format!("{:.1}", r.mean_batch_size),
            s,
        ]);
    }
    t2.note("Each decision is one timing-resilient consensus instance; combining amortises");
    t2.note("it over the whole announced batch.");
    t2.note(format!(
        "The median of {PAIRS} alternated flat/per-op pairs (speedups {lowest:.2}–{highest:.2}); \
         the rows are that pair's runs."
    ));

    // -----------------------------------------------------------------
    // Table 3: the committed batch-size distribution of the flat run —
    // how much combining actually happens under contention.
    // -----------------------------------------------------------------
    let mut t3 = Table::new(
        "E22c",
        "committed batch-size histogram (native, 1k clients, flat-combining)",
        &["batch size", "batches", "ops covered"],
    );
    for &(size, count) in &flat.batch_hist {
        t3.row(vec![
            size.to_string(),
            count.to_string(),
            (size as u64 * count).to_string(),
        ]);
    }
    t3.note("Every committed operation appears in exactly one batch; size 1 means the");
    t3.note("combiner found nothing else announced.");

    // -----------------------------------------------------------------
    // Table 4: under-load sampling verdicts. The same windowed recorder
    // and checker run inside the one load loop for the real batcher, the
    // per-op baseline, and the two seeded combiner mutants (faults in
    // how a worker answers a real burst): the mutants MUST be rejected
    // for the PASS verdicts to mean anything.
    // -----------------------------------------------------------------
    let mut t4 = Table::new(
        "E22d",
        "under-load linearizability sampling verdicts (native, 1k clients)",
        &[
            "combiner",
            "sampled ops",
            "checked",
            "segments",
            "lost ops",
            "state audit",
            "verdict",
        ],
    );
    for kind in [
        CombinerKind::FlatCombining,
        CombinerKind::PerOp,
        CombinerKind::Reordering,
        CombinerKind::LostOp,
    ] {
        let cfg = LoadConfig {
            combiner: kind,
            sampling: Some(SamplingConfig {
                sample_every: 8,
                ..SamplingConfig::default()
            }),
            ..native_cfg(1_024, 4, 4)
        };
        let report = run_load_native(&cfg, &Trace::default());
        let sampling = report.sampling.expect("sampling was configured");
        t4.row(vec![
            kind.name().to_string(),
            sampling.sampled_ops.to_string(),
            sampling.ops_checked.to_string(),
            sampling.segments.to_string(),
            report.lost_ops.to_string(),
            if report.state_ok { "clean" } else { "DIVERGED" }.to_string(),
            if sampling.passed() {
                "PASS".into()
            } else {
                // First line only: the full counterexample is multi-line.
                let why = sampling
                    .violation
                    .as_deref()
                    .and_then(|v| v.lines().next())
                    .unwrap_or("no ops checked");
                format!("REJECTED ({why})")
            },
        ]);
    }
    t4.note("Every row runs the real service; the mutants only change what a worker hands");
    t4.note("back. The reordering mutant crosses same-key responses, so the state audit stays");
    t4.note("clean and only the history check catches it; the lost-op mutant announces one");
    t4.note("op as a no-op, answers it plausibly, and the state diverges by its amount.");

    vec![t1, t2, t3, t4, overlap()]
}

/// E22e: one worker multiplexes its busy shards, sending every busy
/// shard's next group of accesses in one quorum round. The wall time of
/// a burst that makes two shards busy over that of a burst that makes one
/// busy, 8 ops per busy shard in both, on one 3-replica cluster: ≈ 2.0
/// with the shards driven in turn, ≈ 1.0 when they share rounds. The two
/// kinds of burst alternate, in blocks: each block's ratio is its two
/// medians' ratio, and the table reports the median block, so that a
/// stretch of interference from other load on the host spoils a block,
/// not the verdict.
fn overlap() -> Table {
    const BLOCKS: usize = 5;
    const PAIRS_PER_BLOCK: usize = 16;
    const OPS_PER_SHARD: usize = 8;
    let net = Arc::new(Network::new(NetConfig::new(1, 3, 0xE22E)));
    let control = net.control();
    let cfg = ServiceConfig {
        capacity_per_shard: 2 * BLOCKS * PAIRS_PER_BLOCK + 4,
        delta: Duration::from_micros(200),
        ..ServiceConfig::new(2, 1)
    };
    let svc = ObjectService::on(Arc::new(net.space()), || Counter, &cfg);
    let key_on = |shard: usize| (0..).find(|&k| svc.shard_of(k) == shard).expect("a key");
    let burst = |shards: usize| -> Vec<(u64, u64)> {
        (0..shards)
            .flat_map(|shard| std::iter::repeat_n((key_on(shard), 1), OPS_PER_SHARD))
            .collect()
    };
    let bursts = [burst(1), burst(2)];
    let mut worker = svc.worker(ProcId(0));
    let mut run = |ops: &[(u64, u64)]| {
        let (rounds, requests) = (control.quorum_rounds(), control.requests_sent());
        let t0 = Instant::now();
        worker.enqueue_burst(ops);
        let done = worker.drive();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        assert_eq!(done.len(), ops.len(), "a driven burst is answered");
        let cost = [
            control.quorum_rounds() - rounds,
            control.requests_sent() - requests,
        ];
        (us, cost)
    };
    // A first pair warms the sessions up.
    for ops in &bursts {
        run(ops);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    // Per kind of burst: every wall time in µs, and the quorum rounds and
    // requests.
    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut costs = [[0u64; 2]; 2];
    let mut block_ratios: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let mut block: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
            for _ in 0..PAIRS_PER_BLOCK {
                for (kind, ops) in bursts.iter().enumerate() {
                    let (us, [rounds, requests]) = run(ops);
                    block[kind].push(us);
                    times[kind].push(us);
                    costs[kind][0] += rounds;
                    costs[kind][1] += requests;
                }
            }
            let [one, two] = &mut block;
            median(two) / median(one)
        })
        .collect();
    let bursts_per_kind = BLOCKS * PAIRS_PER_BLOCK;
    let ratio = median(&mut block_ratios);
    let one = median(&mut times[0]);
    let two = median(&mut times[1]);
    let mut t = Table::new(
        "E22e",
        "shared rounds: one worker multiplexes its busy shards (quorum, 3 replicas, 8 ops per shard)",
        &[
            "busy shards",
            "bursts",
            "rounds/burst",
            "requests/round",
            "burst µs (median)",
            "ratio",
        ],
    );
    for (kind, (busy, us, ratio)) in [(1, one, 1.0), (2, two, ratio)].into_iter().enumerate() {
        let [rounds, requests] = costs[kind];
        t.row(vec![
            busy.to_string(),
            bursts_per_kind.to_string(),
            format!("{:.1}", rounds as f64 / bursts_per_kind as f64),
            format!("{:.1}", requests as f64 / rounds as f64),
            format!("{us:.0}"),
            format!("{ratio:.2}"),
        ]);
    }
    t.note("A decision costs 7 quorum rounds. A worker whose space round-trips sends the next");
    t.note("group of every busy shard as one group of the shared space, one request per replica");
    t.note(format!(
        "per phase: two busy shards share each round. Network high-water mark: {} quorum \
         rounds open at once.",
        control.max_open_rounds()
    ));
    t.note(format!(
        "The ratio is the median of {BLOCKS} blocks of {PAIRS_PER_BLOCK} alternated pairs \
         (blocks {:.2}–{:.2}).",
        block_ratios[0],
        block_ratios[BLOCKS - 1]
    ));
    t.note(format!(
        "Budget of the 2-shard burst: the 1-shard burst's {one:.0} µs predicted, {two:.0} µs \
         measured ({:+.1} %).",
        (two / one - 1.0) * 100.0
    ));
    t
}

/// The gates on E22. Every one is structural or a same-run ratio, so a
/// slow runner cannot flake them; a per-op fallback, a poisoned combiner
/// or a blunted checker fails one of them on any machine.
pub fn gates(tables: &[Table]) -> Vec<GateResult> {
    vec![
        // Sustained throughput at three or more client counts on each
        // backend, one of them at 10k clients or more, every run audited.
        gate("E22a.scale_with_integrity", || {
            for backend in ["native", "net"] {
                let rows = by_id(tables, "E22a")?.rows_where(&[("backend", backend)])?;
                rows[0].expect(rows.len() >= 3, ">= 3 client counts per backend")?;
                let mut at_10k = false;
                for row in &rows {
                    at_10k |= row.num("clients")? >= 10_000.0;
                    row.expect(row.num("ops/sec")? > 0.0, "ops/sec > 0")?;
                    row.expect(row.text("integrity")? == "ok", "integrity = ok")?;
                }
                rows[0].expect(at_10k, "a point at >= 10k clients on this backend")?;
            }
            Ok(())
        }),
        // One decision per batch must buy at least 2x over one per op
        // (the median pair, 2.4–3.0x measured), with real batches behind
        // the ratio.
        gate("E22b.flat_combining_speedup", || {
            let flat = by_id(tables, "E22b")?.row_where(&[("combiner", "flat-combining")])?;
            flat.expect(flat.num("speedup")? >= 2.0, "speedup >= 2.0")?;
            flat.expect(flat.num("mean batch")? > 1.0, "mean batch > 1")
        }),
        gate("E22b.per_op_decides_every_op", || {
            let per_op = by_id(tables, "E22b")?.row_where(&[("combiner", "per-op")])?;
            per_op.expect(
                per_op.num("decisions")? == per_op.num("ops")?,
                "decisions = ops",
            )
        }),
        gate("E22c.histogram_covers_every_op_once", || {
            let flat = by_id(tables, "E22b")?.row_where(&[("combiner", "flat-combining")])?;
            let mut covered = 0.0;
            for row in by_id(tables, "E22c")?.rows_where(&[])? {
                covered += row.num("ops covered")?;
            }
            flat.expect(
                covered == flat.num("ops")?,
                &format!("E22c's {covered} covered ops = ops"),
            )
        }),
        gate("E22d.sampler_passes_real_combiners", || {
            for real in ["flat-combining", "per-op"] {
                let row = by_id(tables, "E22d")?.row_where(&[("combiner", real)])?;
                row.expect(row.text("verdict")? == "PASS", "verdict = PASS")?;
                row.expect(row.num("checked")? > 0.0, "checked > 0")?;
            }
            Ok(())
        }),
        // The PASS rows mean something only because the same check
        // rejects both mutants — and the reordering one is invisible to
        // the state audit, so only the history check can be catching it.
        gate("E22d.sampler_rejects_both_mutants", || {
            let verdicts = by_id(tables, "E22d")?;
            let reordering = verdicts.row_where(&[("combiner", "reordering")])?;
            let lost_op = verdicts.row_where(&[("combiner", "lost-op")])?;
            for row in [reordering, lost_op] {
                row.expect(
                    row.text("verdict")?.starts_with("REJECTED"),
                    "verdict REJECTED…",
                )?;
            }
            reordering.expect(
                reordering.text("state audit")? == "clean",
                "state audit = clean",
            )?;
            lost_op.expect(
                lost_op.text("state audit")? == "DIVERGED",
                "state audit = DIVERGED",
            )?;
            lost_op.expect(lost_op.num("lost ops")? == 1.0, "lost ops = 1")
        }),
        // Two busy shards share every round, so they open the rounds of
        // one, and on the same machine cost at most 1.2x its wall time:
        // in turn they cost 2.0x by construction.
        gate("E22e.shards_overlap", || {
            let overlap = by_id(tables, "E22e")?;
            let one = overlap.row_where(&[("busy shards", "1")])?;
            let two = overlap.row_where(&[("busy shards", "2")])?;
            two.expect(
                two.num("rounds/burst")? == one.num("rounds/burst")?,
                "rounds/burst = the one-shard row's",
            )?;
            two.expect(two.num("ratio")? <= 1.2, "ratio <= 1.2")
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::gates;
    use crate::experiments::testkit::{assert_gates_reject, table, Doctor::*};

    #[test]
    fn every_service_gate_rejects_its_mutant() {
        let fixture = [
            table(
                "E22a",
                "backend | clients | ops/sec | integrity",
                &[
                    "native | 1000 | 900000 | ok",
                    "native | 10000 | 800000 | ok",
                    "native | 100000 | 400000 | ok",
                    "net | 100 | 220 | ok",
                    "net | 1000 | 225 | ok",
                    "net | 10000 | 226 | ok",
                ],
            ),
            table(
                "E22b",
                "combiner | ops | decisions | mean batch | speedup",
                &[
                    "flat-combining | 4000 | 900 | 4.4 | 4.10",
                    "per-op | 4000 | 4000 | 1.0 | 1.00",
                ],
            ),
            table("E22c", "batch size | ops covered", &["1 | 400", "4 | 3600"]),
            table(
                "E22d",
                "combiner | checked | lost ops | state audit | verdict",
                &[
                    "flat-combining | 500 | 0 | clean | PASS",
                    "per-op | 500 | 0 | clean | PASS",
                    "reordering | 500 | 0 | clean | REJECTED (not linearizable)",
                    "lost-op | 500 | 1 | DIVERGED | REJECTED (not linearizable)",
                ],
            ),
            table(
                "E22e",
                "busy shards | rounds/burst | ratio",
                &["1 | 7.0 | 1.00", "2 | 7.0 | 1.09"],
            ),
        ];
        assert_gates_reject(
            gates,
            &fixture,
            &[
                (
                    "E22a.scale_with_integrity",
                    &[
                        DropRow(4),
                        Set(5, "clients", "9999"),
                        Set(1, "integrity", "LOST"),
                        Clear,
                    ],
                ),
                (
                    "E22b.flat_combining_speedup",
                    &[Set(0, "speedup", "1.9"), Set(0, "mean batch", "1.0")],
                ),
                (
                    "E22b.per_op_decides_every_op",
                    &[Set(1, "decisions", "3999")],
                ),
                (
                    "E22c.histogram_covers_every_op_once",
                    &[Set(0, "ops covered", "399"), Clear],
                ),
                (
                    "E22d.sampler_passes_real_combiners",
                    &[Set(0, "verdict", "REJECTED (x)"), Set(1, "checked", "0")],
                ),
                (
                    "E22d.sampler_rejects_both_mutants",
                    &[
                        Set(2, "verdict", "PASS"),
                        Set(2, "state audit", "DIVERGED"),
                        Set(3, "lost ops", "0"),
                        DropRow(3),
                    ],
                ),
                (
                    "E22e.shards_overlap",
                    &[
                        Set(1, "ratio", "2.01"),
                        Set(1, "ratio", "1.21"),
                        Set(1, "rounds/burst", "14.0"),
                        DropRow(1),
                    ],
                ),
            ],
        );
    }
}
