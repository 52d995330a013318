//! NET: the quorum-register execution stack — ABD round-trip costs as the
//! replica count grows, telemetry-measured convergence after seeded
//! partition/heal schedules from the network nemesis, and the round trip
//! measured against the link round trip as client threads are added.

use crate::table::{by_id, gate, GateResult};
use crate::Table;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tfr_chaos::netfault::random_net_schedule;
use tfr_chaos::netfault::{apply_net_schedule, NetFaultOp};
use tfr_net::{NetConfig, Network, QuorumSpace};
use tfr_registers::space::{Access, RegisterSpace, RegisterSpaceExt, WriteKind};
use tfr_registers::ProcId;
use tfr_telemetry::summary::heal_convergence_from_events;
use tfr_telemetry::{with_pid, EventKind, Trace, Tracer};

fn mean_us(rtts: &[u64]) -> String {
    if rtts.is_empty() {
        return "-".into();
    }
    format!(
        "{:.1}",
        rtts.iter().sum::<u64>() as f64 / rtts.len() as f64 / 1_000.0
    )
}

/// NET — see module docs.
pub fn net() -> Vec<Table> {
    // -----------------------------------------------------------------
    // Table 1: round-trip cost of one emulated register operation as the
    // cluster grows. Every op is two message waves to a majority (reads
    // skip the write-back when the quorum already agrees).
    // -----------------------------------------------------------------
    let mut t1 = Table::new(
        "NETa",
        "ABD quorum round-trips by replica count (1 client, sequential ops)",
        &[
            "replicas",
            "majority",
            "quorum ops",
            "read rtt (µs)",
            "write rtt (µs)",
            "msgs/op",
        ],
    );
    for replicas in [3usize, 5, 7] {
        let cfg = NetConfig::new(1, replicas, 42);
        let tracer = Arc::new(Tracer::new(cfg.tracer_processes()));
        let net = Arc::new(Network::with_trace(
            cfg.clone(),
            Trace::attached(Arc::clone(&tracer)),
        ));
        let space = net.space();
        with_pid(ProcId(0), || {
            for k in 0..24u64 {
                space.write(k % 4, k + 1);
                let _ = space.read(k % 4);
            }
        });
        let events = tracer.events();
        let (mut reads, mut writes, mut sent) = (Vec::new(), Vec::new(), 0usize);
        for e in &events {
            match e.kind {
                EventKind::QuorumEnd { write, rtt_ns, .. } => {
                    if write { &mut writes } else { &mut reads }.push(rtt_ns)
                }
                EventKind::MsgSend { .. } => sent += 1,
                _ => {}
            }
        }
        let ops = reads.len() + writes.len();
        t1.row(vec![
            replicas.to_string(),
            cfg.majority().to_string(),
            ops.to_string(),
            mean_us(&reads),
            mean_us(&writes),
            format!("{:.1}", sent as f64 / ops as f64),
        ]);
    }
    t1.note("Each op needs one or two waves to a majority; cost grows with the quorum size,");
    t1.note("not the cluster size — reads skip the write-back when the quorum already agrees.");

    // -----------------------------------------------------------------
    // Table 2: seeded nemesis schedules (drops, delay spikes, minority and
    // client-isolating partitions) against a two-client workload; the
    // convergence column is the telemetry-measured drain time of quorum
    // ops stranded in flight across the final heal.
    // -----------------------------------------------------------------
    let mut t2 = Table::new(
        "NETb",
        "partition-heal convergence under seeded nemesis schedules",
        &[
            "seed",
            "schedule",
            "net faults",
            "quorum ops",
            "dropped msgs",
            "heal convergence (µs)",
        ],
    );
    for seed in [2u64, 13, 23] {
        let mut cfg = NetConfig::new(2, 5, seed);
        cfg.retransmit = Duration::from_micros(300);
        let tracer = Arc::new(Tracer::new(cfg.tracer_processes()));
        let net = Arc::new(Network::with_trace(
            cfg,
            Trace::attached(Arc::clone(&tracer)),
        ));
        let schedule = random_net_schedule(seed, net.config());
        let control = net.control();
        let space = Arc::new(net.space());
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let (schedule, stop) = (schedule.clone(), Arc::clone(&stop));
                s.spawn(move || {
                    apply_net_schedule(&control, &schedule);
                    stop.store(true, Ordering::SeqCst);
                });
            }
            for i in 0..2u64 {
                let (space, stop) = (Arc::clone(&space), Arc::clone(&stop));
                s.spawn(move || {
                    with_pid(ProcId(i as usize), || {
                        let mut k = 0;
                        while !stop.load(Ordering::SeqCst) {
                            space.write(i, k);
                            let _ = space.read(1 - i);
                            k += 1;
                        }
                    })
                });
            }
        });
        let events = tracer.events();
        let convergence = heal_convergence_from_events(&events);
        let quorum_ops = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::QuorumEnd { .. }))
            .count();
        let dropped = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MsgDropped { .. }))
            .count();
        let kinds: Vec<&str> = schedule
            .iter()
            .filter_map(|step| match step.op {
                NetFaultOp::DelaySpike(_) => Some("spike"),
                NetFaultOp::DropPercent(_) => Some("drop"),
                NetFaultOp::PartitionMinority(_) => Some("cut-min"),
                NetFaultOp::PartitionClients(_) => Some("cut-cli"),
                NetFaultOp::Heal => None,
            })
            .collect();
        t2.row(vec![
            seed.to_string(),
            kinds.join("+"),
            convergence.faults.to_string(),
            quorum_ops.to_string(),
            dropped.to_string(),
            convergence
                .convergence_ns
                .map_or("-".into(), |ns| format!("{:.1}", ns as f64 / 1_000.0)),
        ]);
    }
    t2.note("Safety never depends on the schedule: stranded ops retransmit until the heal,");
    t2.note("then drain — the convergence column is that drain, measured off the trace.");

    // -----------------------------------------------------------------
    // Table 3: what a round trip costs beyond the links. The network has
    // no thread of its own — the client waiting on a round delivers the
    // due messages itself — so a quorum read should cost one mean link
    // round trip and a write two. Client threads beyond the CPU count
    // share cores while they spin out their waits: the ratio shows it.
    // A run of 8 registers is one message per replica per phase, so at
    // one client it should cost what one register costs.
    // -----------------------------------------------------------------
    let mut t3 = Table::new(
        "NETc",
        "quorum round trip over link round trip, by client threads (R = 3, disjoint registers)",
        &[
            "client threads",
            "quorum ops",
            "read p50 (µs)",
            "read / link rtt",
            "write p50 (µs)",
            "write / link rtt",
            "run-of-8 read / link rtt",
            "run-of-8 write / link rtt",
            "owned write / link rtt",
            "run-of-8 owned write / link rtt",
            "agreed write / link rtt",
            "conditional write / link rtt",
            "group r+o+a / link rtt",
            "group w+r / link rtt",
            "ordered group p+c+r / link rtt",
        ],
    );
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for threads in [1usize, 2, 4] {
        let cfg = NetConfig::new(threads, 3, 0xC0A1E5CE);
        let link_rtt_us = (cfg.min_delay + cfg.max_delay).as_secs_f64() * 1e6;
        let (ops, read, write) = round_trip_p50s(&cfg, threads, |i, space| {
            for k in 0..200u64 {
                space.write(i as u64, k + 1);
                let _ = space.read(i as u64);
            }
        });
        let solo_only = if threads == 1 {
            // Eight cells, stride 3, one run each way; then owned writes —
            // the store round alone — of one cell and of the same run.
            let (_, run_read, run_write) = round_trip_p50s(&cfg, 1, |_, space| {
                let mut out = [0; 8];
                for k in 0..200u64 {
                    space.write_run(0, 3, &[k + 1; 8]);
                    space.read_run(0, 3, &mut out);
                }
            });
            let (_, _, owned) = round_trip_p50s(&cfg, 1, |_, space| {
                for k in 0..200u64 {
                    space.write_run_owned(0, 1, &[k + 1]);
                    let _ = space.read(0);
                }
            });
            let (_, _, owned_run) = round_trip_p50s(&cfg, 1, |_, space| {
                let mut out = [0; 8];
                for k in 0..200u64 {
                    space.write_run_owned(0, 3, &[k + 1; 8]);
                    space.read_run(0, 3, &mut out);
                }
            });
            // Agreed writes, the store round alone too: one value per
            // cell, so a fresh cell each time.
            let (_, _, agreed) = round_trip_p50s(&cfg, 1, |_, space| {
                for k in 0..200u64 {
                    space.write_agreed(k, k + 1);
                    let _ = space.read(k);
                }
            });
            // Conditional writes of fresh cells: the query finds each
            // unset, so each writes, in its query and its store round.
            let (_, _, conditional) = round_trip_p50s(&cfg, 1, |_, space| {
                for k in 0..200u64 {
                    space.write_if_unset(k, k + 1, &mut || ());
                    let _ = space.read(k);
                }
            });
            // Groups: a read run of 8, an owned run of 8 and an agreed
            // write of a fresh cell, all in phase 1; a queried write run
            // with a read run, a query and a store.
            let (_, _, stores) = round_trip_p50s(&cfg, 1, |_, space| {
                let mut out = [0; 8];
                for k in 0..200u64 {
                    space.access_all(&mut [
                        Access::read_run(0, 3, &mut out),
                        Access::write_run(100, 3, &[k + 1; 8], WriteKind::Owned),
                        Access::write_run(1_000 + k, 1, &[k + 1], WriteKind::Agreed),
                    ]);
                }
            });
            let (_, _, queried) = round_trip_p50s(&cfg, 1, |_, space| {
                let mut out = [0; 8];
                for k in 0..200u64 {
                    space.access_all(&mut [
                        Access::write_run(0, 3, &[k + 1; 8], WriteKind::Queried),
                        Access::read_run(100, 3, &mut out),
                    ]);
                }
            });
            // An ordered group, a session's announcement: a payload run
            // of 8 and then the counter, owned writes a reader must see in
            // that order, with a read run of 2 (the next slot's probe).
            let (_, _, ordered) = round_trip_p50s(&cfg, 1, |_, space| {
                let mut probe = [0; 2];
                for k in 0..200u64 {
                    space.access_all(&mut [
                        Access::write_run(10 + 8 * 3 * k, 3, &[k + 1; 8], WriteKind::Owned),
                        Access::write_run(2, 1, &[8 * (k + 1)], WriteKind::Owned),
                        Access::read_run(5, 3, &mut probe),
                    ]);
                }
            });
            [
                run_read,
                run_write,
                owned,
                owned_run,
                agreed,
                conditional,
                stores,
                queried,
                ordered,
            ]
            .map(|us| format!("{:.2}", us / link_rtt_us))
        } else {
            ["-"; 9].map(String::from)
        };
        let mut row = vec![
            threads.to_string(),
            ops.to_string(),
            format!("{read:.1}"),
            format!("{:.2}", read / link_rtt_us),
            format!("{write:.1}"),
            format!("{:.2}", write / link_rtt_us),
        ];
        row.extend(solo_only);
        t3.row(row);
    }
    t3.note("Link rtt = min + max one-way delay (90 µs mean). A solo read is one round trip,");
    t3.note("a write two (query, then store): the ratios' excess over 1 and 2 is everything");
    t3.note(format!(
        "that is not link delay or protocol. This host has {cpus} CPUs; waiting rounds spin"
    ));
    t3.note("(yielding), so more client threads than CPUs stretch each other's round trips.");
    t3.note("A run of 8 registers travels as one message per replica per phase, and an owned");
    t3.note("write (cells only this handle writes) or an agreed write (every write to the cell");
    t3.note("carries one value) skips the query. A conditional write of an unset cell (a read,");
    t3.note("then a write if it read 0) shares one query between the two. A group of accesses");
    t3.note("(`r+o+a`: a read run, an owned run, an agreed write; `w+r`: a queried write run and");
    t3.note("a read run) is one message per replica per phase: 1 client only. An ordered group");
    t3.note("(`p+c+r`: a payload run, then the counter, owned, with a read run) is one round too:");
    t3.note("its stores share one tag, and a reader that repairs one cell repairs them all.");
    vec![t1, t2, t3]
}

/// Runs `body(i, space)` on `threads` client threads of a fresh traced
/// cluster, each with its own handle, and returns the quorum operations
/// they completed with the p50 read and write round trips in µs.
fn round_trip_p50s(
    cfg: &NetConfig,
    threads: usize,
    body: impl Fn(usize, &QuorumSpace) + Sync,
) -> (usize, f64, f64) {
    let tracer = Arc::new(Tracer::new(cfg.tracer_processes()));
    let net = Arc::new(Network::with_trace(
        cfg.clone(),
        Trace::attached(Arc::clone(&tracer)),
    ));
    std::thread::scope(|s| {
        for i in 0..threads {
            let (net, body) = (&net, &body);
            s.spawn(move || {
                let space = net.space();
                with_pid(ProcId(i), || body(i, &space))
            });
        }
    });
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for e in tracer.events() {
        if let EventKind::QuorumEnd { write, rtt_ns, .. } = e.kind {
            if write { &mut writes } else { &mut reads }.push(rtt_ns)
        }
    }
    let p50_us = |rtts: &mut Vec<u64>| {
        rtts.sort_unstable();
        rtts[rtts.len() / 2] as f64 / 1_000.0
    };
    (
        reads.len() + writes.len(),
        p50_us(&mut reads),
        p50_us(&mut writes),
    )
}

/// The gates on NET: no thread sits between a client and the replicas,
/// so a solo read costs about one link round trip and a write about two
/// (3.2 and 6.4 when a router thread did); a run of 8 registers costs
/// what one register costs, one round per phase (a run served cell by
/// cell would read 8 and 16); and an owned write, one cell or a run of 8,
/// and an agreed write are the store round alone (a queried write would
/// read 2); a conditional write of an unset cell is a query and a store,
/// two rounds (a read and then a queried write would read 3, a store
/// alone 1); and a group costs one round per phase — a read run, an
/// owned run and an agreed write one round, a queried write run and a
/// read run two (served access by access, both would read 3); and an
/// ordered group, a payload run and then a counter with a read run, one
/// round (with the order kept by a round for the payloads and another
/// for the counter, it would read 2). Self-normalising: the p50 over the
/// *configured* mean link round trip.
pub fn gates(tables: &[Table]) -> Vec<GateResult> {
    let solo = || by_id(tables, "NETc")?.row_where(&[("client threads", "1")]);
    vec![
        gate("NETc.solo_round_trips_near_link_rtt", || {
            let solo = solo()?;
            solo.expect(
                solo.num("read / link rtt")? <= 2.0,
                "read / link rtt <= 2.0",
            )?;
            solo.expect(
                solo.num("write / link rtt")? <= 4.0,
                "write / link rtt <= 4.0",
            )
        }),
        gate("NETc.runs_cost_one_round_per_phase", || {
            let solo = solo()?;
            solo.expect(
                solo.num("run-of-8 read / link rtt")? <= 1.3,
                "run-of-8 read / link rtt <= 1.3",
            )?;
            solo.expect(
                solo.num("run-of-8 write / link rtt")? <= 2.6,
                "run-of-8 write / link rtt <= 2.6",
            )
        }),
        gate("NETc.owned_writes_cost_one_round", || {
            let solo = solo()?;
            solo.expect(
                solo.num("owned write / link rtt")? <= 1.3,
                "owned write / link rtt <= 1.3",
            )?;
            solo.expect(
                solo.num("run-of-8 owned write / link rtt")? <= 1.3,
                "run-of-8 owned write / link rtt <= 1.3",
            )
        }),
        gate("NETc.agreed_writes_cost_one_round", || {
            let solo = solo()?;
            solo.expect(
                solo.num("agreed write / link rtt")? <= 1.3,
                "agreed write / link rtt <= 1.3",
            )
        }),
        gate("NETc.conditional_write_costs_two_rounds", || {
            let solo = solo()?;
            let conditional = solo.num("conditional write / link rtt")?;
            solo.expect(
                (1.5..=2.6).contains(&conditional),
                "conditional write / link rtt in 1.5..=2.6",
            )
        }),
        gate("NETc.groups_cost_one_round_per_phase", || {
            let solo = solo()?;
            solo.expect(
                solo.num("group r+o+a / link rtt")? <= 1.3,
                "group r+o+a / link rtt <= 1.3",
            )?;
            let queried = solo.num("group w+r / link rtt")?;
            solo.expect(
                (1.5..=2.6).contains(&queried),
                "group w+r / link rtt in 1.5..=2.6",
            )
        }),
        gate("NETc.ordered_groups_cost_one_round", || {
            let solo = solo()?;
            solo.expect(
                solo.num("ordered group p+c+r / link rtt")? <= 1.3,
                "ordered group p+c+r / link rtt <= 1.3",
            )
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::gates;
    use crate::experiments::testkit::{assert_gates_reject, table, Doctor::*};

    #[test]
    fn every_net_gate_rejects_its_mutant() {
        let fixture = [table(
            "NETc",
            "client threads | read / link rtt | write / link rtt \
             | run-of-8 read / link rtt | run-of-8 write / link rtt \
             | owned write / link rtt | run-of-8 owned write / link rtt \
             | agreed write / link rtt | conditional write / link rtt \
             | group r+o+a / link rtt | group w+r / link rtt \
             | ordered group p+c+r / link rtt",
            &[
                "1 | 1.01 | 2.02 | 1.02 | 2.04 | 1.01 | 1.03 | 1.02 | 2.03 | 1.04 | 2.05 | 1.05",
                "2 | 1.05 | 2.10 | - | - | - | - | - | - | - | - | -",
                "4 | 2.40 | 4.90 | - | - | - | - | - | - | - | - | -",
            ],
        )];
        // Every gate reads the one-client row, so a missing row or an
        // empty table is listed under each and must fail each.
        assert_gates_reject(
            gates,
            &fixture,
            &[
                (
                    "NETc.solo_round_trips_near_link_rtt",
                    &[
                        Set(0, "read / link rtt", "3.20"),
                        Set(0, "write / link rtt", "4.01"),
                        Set(0, "read / link rtt", "-"),
                        DropRow(0),
                        Clear,
                    ],
                ),
                (
                    "NETc.runs_cost_one_round_per_phase",
                    &[
                        // A run served cell by cell: 8 and 16 round trips.
                        Set(0, "run-of-8 read / link rtt", "8.10"),
                        Set(0, "run-of-8 write / link rtt", "16.20"),
                        Set(0, "run-of-8 read / link rtt", "1.31"),
                        Set(0, "run-of-8 write / link rtt", "2.61"),
                        Set(0, "run-of-8 write / link rtt", "-"),
                        DropRow(0),
                        Clear,
                    ],
                ),
                (
                    "NETc.owned_writes_cost_one_round",
                    &[
                        // An owned write that still ran the query round.
                        Set(0, "owned write / link rtt", "2.02"),
                        Set(0, "owned write / link rtt", "1.31"),
                        Set(0, "run-of-8 owned write / link rtt", "1.31"),
                        Set(0, "owned write / link rtt", "-"),
                        Set(0, "run-of-8 owned write / link rtt", "-"),
                        DropRow(0),
                        Clear,
                    ],
                ),
                (
                    "NETc.agreed_writes_cost_one_round",
                    &[
                        // An agreed write that still ran the query round.
                        Set(0, "agreed write / link rtt", "2.02"),
                        Set(0, "agreed write / link rtt", "1.31"),
                        Set(0, "agreed write / link rtt", "-"),
                        DropRow(0),
                        Clear,
                    ],
                ),
                (
                    "NETc.conditional_write_costs_two_rounds",
                    &[
                        // A read and then a queried write: three rounds.
                        Set(0, "conditional write / link rtt", "3.05"),
                        Set(0, "conditional write / link rtt", "2.61"),
                        // A store without the query: one round.
                        Set(0, "conditional write / link rtt", "1.02"),
                        Set(0, "conditional write / link rtt", "-"),
                        DropRow(0),
                        Clear,
                    ],
                ),
                (
                    "NETc.groups_cost_one_round_per_phase",
                    &[
                        // Groups served access by access: three rounds.
                        Set(0, "group r+o+a / link rtt", "3.04"),
                        Set(0, "group w+r / link rtt", "3.06"),
                        Set(0, "group r+o+a / link rtt", "1.31"),
                        Set(0, "group w+r / link rtt", "2.61"),
                        // A queried write that skipped its query.
                        Set(0, "group w+r / link rtt", "1.02"),
                        Set(0, "group r+o+a / link rtt", "-"),
                        DropRow(0),
                        Clear,
                    ],
                ),
                (
                    "NETc.ordered_groups_cost_one_round",
                    &[
                        // The payloads and the counter in rounds of their
                        // own, in order: two rounds.
                        Set(0, "ordered group p+c+r / link rtt", "2.04"),
                        Set(0, "ordered group p+c+r / link rtt", "1.31"),
                        Set(0, "ordered group p+c+r / link rtt", "-"),
                        DropRow(0),
                        Clear,
                    ],
                ),
            ],
        );
    }
}
