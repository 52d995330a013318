//! Overlapped shards under network faults: two workers, each keeping its
//! two busy shards' quorum rounds in flight together, over five replicas
//! with 30 % of messages dropped and two replicas cut off halfway
//! through. Nothing is lost, every per-key total is exact, the under-load
//! sampler passes the real batcher, and it still rejects the reordering
//! mutant.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tfr_net::{NetConfig, Network};
use tfr_service::{run_load, CombinerKind, LoadConfig, LoadReport, SamplingConfig};
use tfr_telemetry::Trace;

const WORKERS: usize = 2;
const SHARDS: usize = 2;
const REPLICAS: usize = 5;
const SEED: u64 = 0x0FA1;

fn load(combiner: CombinerKind) -> LoadConfig {
    LoadConfig {
        combiner,
        ops_per_client: 2,
        delta: Duration::from_micros(200),
        sampling: Some(SamplingConfig::default()),
        ..LoadConfig::new(64, WORKERS, SHARDS)
    }
}

fn network() -> Arc<Network> {
    Arc::new(Network::new(NetConfig::new(WORKERS, REPLICAS, SEED)))
}

/// Runs `combiner`'s load with 30 % drops from the start and replicas 0
/// and 1 cut off once the run has opened `cut_after` quorum rounds.
/// Returns the report and whether the cut happened before the run ended.
fn run_under_faults(combiner: CombinerKind, cut_after: u64) -> (LoadReport, bool) {
    let net = network();
    let control = net.control();
    control.set_drop(0.3);
    let done = AtomicBool::new(false);
    let cut = AtomicBool::new(false);
    let report = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if control.quorum_rounds() >= cut_after {
                    control.partition_minority(2);
                    cut.store(true, Ordering::SeqCst);
                    return;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let report = run_load(Arc::new(net.space()), &load(combiner), &Trace::default());
        done.store(true, Ordering::SeqCst);
        report
    });
    (report, cut.load(Ordering::SeqCst))
}

#[test]
fn overlapped_shards_lose_nothing_under_drops_and_a_minority_cut() {
    // Halfway through, in quorum rounds: half of what the same load opens
    // on a fault-free cluster (drops only add rounds: retransmissions
    // reuse theirs, but reads write back more often).
    let clean = network();
    let report = run_load(
        Arc::new(clean.space()),
        &load(CombinerKind::FlatCombining),
        &Trace::default(),
    );
    assert!(report.state_ok && report.audit_complete);
    let cut_after = clean.control().quorum_rounds() / 2;

    let (real, cut) = run_under_faults(CombinerKind::FlatCombining, cut_after);
    assert!(cut, "the minority cut happened mid-run");
    assert!(real.audit_complete, "every shard audit is complete");
    assert!(real.state_ok, "every per-key total is exact");
    assert_eq!(real.lost_ops, 0);
    let sampling = real.sampling.as_ref().expect("sampling was configured");
    assert!(sampling.passed(), "real batcher: {:?}", sampling.violation);

    let (reordering, cut) = run_under_faults(CombinerKind::Reordering, cut_after);
    assert!(cut, "the minority cut happened mid-run");
    assert!(reordering.audit_complete && reordering.state_ok);
    let sampling = reordering
        .sampling
        .as_ref()
        .expect("sampling was configured");
    assert!(
        sampling.violation.is_some(),
        "crossed responses must still be rejected"
    );
}
