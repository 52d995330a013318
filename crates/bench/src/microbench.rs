//! A minimal, dependency-free stand-in for the subset of the Criterion
//! API the `benches/` directory uses.
//!
//! The workspace builds fully offline, so the real `criterion` crate is
//! not available. This shim keeps the benchmark sources unchanged in
//! shape (`criterion_group!`/`criterion_main!`, benchmark groups,
//! `iter`/`iter_batched`) while measuring with a plain
//! calibrate-then-time loop: warm up, pick an iteration count that fills
//! the measurement window, and report mean ns/iteration on stdout.
//! It is a *smoke-and-ballpark* harness, not a statistics engine —
//! fine for the relative comparisons the experiment tables need and for
//! keeping `cargo bench` working in CI.

use std::fmt;
use std::time::{Duration, Instant};

/// How the per-iteration setup cost relates to the routine cost.
/// Accepted for API compatibility; the shim always times routine-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup output is small/cheap to hold.
    SmallInput,
    /// Setup output is large.
    LargeInput,
}

/// A benchmark id of the form `name/param`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id rendered as `name/param`.
    pub fn new(name: impl fmt::Display, param: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: format!("{name}/{param}"),
        }
    }
}

/// Anything usable as a benchmark name: a string or a [`BenchmarkId`].
pub trait IntoBenchId {
    /// The rendered benchmark name.
    fn into_bench_id(self) -> String;
}

impl IntoBenchId for &str {
    fn into_bench_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchId for String {
    fn into_bench_id(self) -> String {
        self
    }
}

impl IntoBenchId for BenchmarkId {
    fn into_bench_id(self) -> String {
        self.name
    }
}

/// Timing loop handle passed to each benchmark closure.
pub struct Bencher {
    /// Nanoseconds per iteration, filled in by `iter`/`iter_batched` (the
    /// mean) or `iter_fresh_min` (the minimum over repetitions).
    elapsed_ns: f64,
    measure: Duration,
    /// The repetitions `iter_fresh_min` took its minimum over.
    min_of: Option<usize>,
}

/// Fresh inputs timed together in one repetition of
/// [`Bencher::iter_fresh_min`]: enough that one stopwatch pair is noise.
const FRESH_BATCH: usize = 64;

/// The fewest repetitions [`Bencher::iter_fresh_min`] takes.
const MIN_REPETITIONS: usize = 21;

impl Bencher {
    /// Times `routine` repeatedly and records the mean ns/iteration.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Calibrate: run until ~1/10 of the window passes to pick a count.
        let calib_start = Instant::now();
        let mut calib_iters: u64 = 0;
        while calib_start.elapsed() < self.measure / 10 {
            std::hint::black_box(routine());
            calib_iters += 1;
        }
        let per_iter = calib_start.elapsed().as_nanos() as u64 / calib_iters.max(1);
        let iters = ((self.measure.as_nanos() as u64) / per_iter.max(1)).clamp(1, 10_000_000);

        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(routine());
        }
        self.elapsed_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    }

    /// Times `routine` on fresh values from `setup`, excluding setup time
    /// from the per-iteration figure as far as a summed-stopwatch allows.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let mut timed = Duration::ZERO;
        let mut iters: u64 = 0;
        let wall = Instant::now();
        while timed < self.measure && wall.elapsed() < self.measure * 20 {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            timed += start.elapsed();
            iters += 1;
        }
        self.elapsed_ns = timed.as_nanos() as f64 / iters.max(1) as f64;
    }

    /// Times `routine` on fresh values from `setup` and records the
    /// **minimum** over repetitions of the per-iteration time. A
    /// repetition builds a batch of fresh values untimed, then times the
    /// routine over all of them with one stopwatch; repetitions run until
    /// the measurement window is spent, at least 21 of them. A mean of
    /// one-shot routines moves with every interruption and allocator
    /// mood; the minimum is the routine's own cost, which is what a
    /// before/after comparison of a code change needs.
    pub fn iter_fresh_min<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        let mut best = f64::INFINITY;
        let mut reps = 0;
        let wall = Instant::now();
        while reps < MIN_REPETITIONS || wall.elapsed() < self.measure {
            let inputs: Vec<I> = (0..FRESH_BATCH).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                std::hint::black_box(routine(input));
            }
            let per_iter = start.elapsed().as_nanos() as f64 / FRESH_BATCH as f64;
            best = best.min(per_iter);
            reps += 1;
        }
        self.elapsed_ns = best;
        self.min_of = Some(reps);
    }
}

/// Prints one benchmark's line: `name  ns/iter`, and the repetitions a
/// minimum was taken over.
fn report(name: String, b: &Bencher) {
    let min_of = b
        .min_of
        .map_or(String::new(), |reps| format!(" (min of {reps})"));
    println!("{name:<48} {:>14.1} ns/iter{min_of}", b.elapsed_ns);
}

/// A named group of benchmarks; prints one line per benchmark.
pub struct BenchmarkGroup<'a> {
    name: String,
    crit: &'a Criterion,
    measure: Duration,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's effort is time-based,
    /// so the sample count is folded into a shorter window.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self.measure = self.crit.measure / 2;
        self
    }

    /// Runs one benchmark and prints `group/name  mean ns/iter`.
    pub fn bench_function(
        &mut self,
        id: impl IntoBenchId,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher {
            elapsed_ns: 0.0,
            measure: self.measure,
            min_of: None,
        };
        f(&mut b);
        report(format!("{}/{}", self.name, id.into_bench_id()), &b);
        self
    }

    /// Runs one parameterized benchmark.
    pub fn bench_with_input<I>(
        &mut self,
        id: impl IntoBenchId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut b = Bencher {
            elapsed_ns: 0.0,
            measure: self.measure,
            min_of: None,
        };
        f(&mut b, input);
        report(format!("{}/{}", self.name, id.into_bench_id()), &b);
        self
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// Entry point object handed to each `criterion_group!` function.
pub struct Criterion {
    measure: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        // Short window: these run in CI smoke jobs; precision beyond
        // ballpark is not the goal. TFR_BENCH_MS overrides.
        let ms = std::env::var("TFR_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30);
        Criterion {
            measure: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl fmt::Display) -> BenchmarkGroup<'_> {
        let measure = self.measure;
        BenchmarkGroup {
            name: name.to_string(),
            crit: self,
            measure,
        }
    }
}

/// Declares a function that runs the listed benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::microbench::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_reports_positive_time() {
        let mut b = Bencher {
            elapsed_ns: 0.0,
            measure: Duration::from_millis(2),
            min_of: None,
        };
        b.iter(|| std::hint::black_box(1u64 + 1));
        assert!(b.elapsed_ns > 0.0);
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut b = Bencher {
            elapsed_ns: 0.0,
            measure: Duration::from_millis(2),
            min_of: None,
        };
        b.iter_batched(|| vec![0u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert!(b.elapsed_ns > 0.0);
    }

    #[test]
    fn iter_fresh_min_takes_the_least_of_many_repetitions() {
        let mut b = Bencher {
            elapsed_ns: 0.0,
            measure: Duration::from_millis(1),
            min_of: None,
        };
        let mut built = 0;
        b.iter_fresh_min(
            || {
                built += 1;
                vec![0u8; 16]
            },
            |v| v.len(),
        );
        let reps = b.min_of.expect("a minimum was taken");
        assert!(reps >= MIN_REPETITIONS);
        assert_eq!(
            built,
            reps * FRESH_BATCH,
            "every iteration gets a fresh input"
        );
        assert!(b.elapsed_ns >= 0.0 && b.elapsed_ns.is_finite());
    }

    #[test]
    fn benchmark_id_renders_name_slash_param() {
        assert_eq!(BenchmarkId::new("lock", 8).into_bench_id(), "lock/8");
    }
}
