//! The fixed cost of overlapping a worker's busy shards (B15): spawning
//! one scoped helper thread and joining it, as the service worker does
//! twice per burst (once to announce, once to drive) when its space's
//! accesses are round trips.

use std::hint::black_box;
use tfr_bench::microbench::{criterion_group, criterion_main, Criterion};

fn bench_overlap(c: &mut Criterion) {
    let mut g = c.benchmark_group("overlap");
    g.bench_function("scoped_helper_spawn_join", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                let helper = s.spawn(|| black_box(1u64));
                black_box(helper.join().expect("the helper returns"))
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_overlap);
criterion_main!(benches);
