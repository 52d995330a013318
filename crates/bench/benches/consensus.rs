//! Wall-clock benchmarks for the native consensus implementations (B1/B2):
//! solo fast-path latency, multi-thread decision latency, and the
//! multivalued construction.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use tfr_bench::microbench::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use tfr_core::consensus::NativeConsensus;
use tfr_core::universal::MultiConsensus;
use tfr_registers::ProcId;

const DELTA: Duration = Duration::from_micros(2);

fn bench_solo(c: &mut Criterion) {
    let mut g = c.benchmark_group("consensus_solo");
    g.bench_function("alg1_propose", |b| {
        b.iter_batched(
            || NativeConsensus::new(DELTA),
            |cons| black_box(cons.propose(true)),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("alg1_read_decided", |b| {
        let cons = NativeConsensus::new(DELTA);
        cons.propose(true);
        // Late arrivals: one loop-check read.
        b.iter(|| black_box(cons.propose(false)))
    });
    g.bench_function("multivalued_16bit_propose", |b| {
        b.iter_batched(
            || MultiConsensus::new(4, 16, DELTA),
            |mc| black_box(mc.propose(ProcId(0), 12345)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("consensus_threads");
    g.sample_size(10);
    for n in [2usize, 4] {
        g.bench_with_input(BenchmarkId::new("alg1_all_decide", n), &n, |b, &n| {
            b.iter(|| {
                let cons = Arc::new(NativeConsensus::new(DELTA));
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        let cons = Arc::clone(&cons);
                        std::thread::spawn(move || cons.propose(i % 2 == 0))
                    })
                    .collect();
                for h in handles {
                    black_box(h.join().unwrap());
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_solo, bench_threads);
criterion_main!(benches);
