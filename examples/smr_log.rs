//! Log-driven state-machine replication over the quorum stack: a
//! replicated counter commits batches through height-indexed consensus
//! with the pipeline window open, while a nemesis cuts a **minority** of
//! the replicas mid-run — right as the log is transitioning heights —
//! and later heals the cluster.
//!
//! The point: the `ReplicatedLog` never notices. Every log register is
//! an ABD-emulated atomic register that only needs a majority, so a
//! minority cut slows quorum round-trips (retransmits route around the
//! cut) without ever forking the log. The full prefix audit at the end
//! proves it: every lane — proposing workers and the passive replica —
//! applied the same batches in the same height order, and every final
//! counter equals the sum of all committed increments.
//!
//! ```text
//! cargo run --release --example smr_log [seed]
//! ```

use std::sync::Arc;
use std::time::Duration;
use tfr::log::{run_smr, SmrConfig};
use tfr::net::{NetConfig, Network};
use tfr::telemetry::Trace;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0xD15C);

    // Two proposing workers, one passive replica, 8 heights of 2 ops
    // each, pipeline window 2: heights keep committing while earlier
    // decisions are still propagating to the appliers.
    let cfg = SmrConfig {
        workers: 2,
        replicas: 1,
        batches_per_worker: 4,
        batch: 2,
        window: 2,
        delta: Duration::from_millis(1),
        replica_poll: Duration::from_micros(200),
        seed,
    };
    let lanes = cfg.workers + cfg.replicas;
    let net = Arc::new(Network::new(NetConfig::new(lanes, 3, seed)));
    let control = net.control();

    println!(
        "cluster : {} log lanes over {} replicas (majority {}), seed {seed:#x}",
        lanes,
        net.config().replicas,
        net.config().majority()
    );
    println!(
        "log     : {} heights of {} ops, pipeline window {}",
        cfg.total_heights(),
        cfg.batch,
        cfg.window
    );

    // The nemesis: cut one storage replica (a minority — the quorum
    // stays intact) while the log is mid-pipeline, then heal.
    let nemesis = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(3));
        control.partition_minority(1);
        println!("nemesis : minority partition (1 replica cut) mid-height-transition");
        std::thread::sleep(Duration::from_millis(8));
        control.heal();
        println!("nemesis : healed");
    });

    let report = run_smr(Arc::new(net.space()), &cfg, Trace::default());
    nemesis.join().expect("nemesis panicked");

    let control = net.control();
    println!(
        "network : {} messages delivered by the waiting lanes themselves, in {} pumps",
        control.delivered_messages(),
        control.delivery_batches()
    );
    println!(
        "commits : {} heights ({} ops) in {:.1} ms — {:.0} commits/sec",
        report.commits,
        report.total_ops,
        report.elapsed.as_secs_f64() * 1e3,
        report.commits_per_sec()
    );

    assert_eq!(
        report.commits,
        cfg.total_heights(),
        "every height committed"
    );
    assert!(
        report.converged,
        "prefix audit diverged: {:?}",
        report.divergence
    );
    assert!(report.state_ok, "a lane's counter missed the expected sum");
    println!("audit   : every lane is an in-order prefix of one canonical log — converged");
    println!(
        "state   : all {} lanes agree on the final counter value",
        lanes
    );
}
