//! Offline stand-in for the `criterion` crate.
//!
//! Keeps the macro and builder surface (`criterion_group!`,
//! `criterion_main!`, groups, `bench_with_input`, throughput) but
//! replaces the statistical engine with a simple calibrated wall-clock
//! loop: warm up, pick an iteration count targeting a fixed measuring
//! window, report mean ns/iter (and MB/s when a byte throughput is
//! set). Good enough to rank order and spot large regressions; not a
//! substitute for criterion's confidence intervals.

use std::fmt;
use std::time::{Duration, Instant};

/// Measurement window per benchmark; intentionally short so the whole
/// E1–E10 suite stays fast in CI.
const TARGET_WINDOW: Duration = Duration::from_millis(60);

#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl fmt::Display) -> BenchmarkGroup<'_> {
        println!("\n== {name} ==");
        BenchmarkGroup {
            _parent: self,
            throughput: None,
            sample_size: 10,
        }
    }

    pub fn bench_function<F>(&mut self, name: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&name.to_string(), None, 10, f);
        self
    }

    pub fn configure_from_args(self) -> Self {
        self
    }
}

/// Identifies one parameterised benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{function_name}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.to_string(), self.throughput, self.sample_size, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&id.to_string(), self.throughput, self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_benchmark<F>(label: &str, throughput: Option<Throughput>, _sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    // Calibrate: time a single iteration, then scale the count to fill
    // the target window (capped to keep pathological benches bounded).
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    let once = bencher.elapsed.max(Duration::from_nanos(1));
    let iters = (TARGET_WINDOW.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;

    bencher.iters = iters;
    f(&mut bencher);
    let per_iter_ns = bencher.elapsed.as_nanos() as f64 / iters as f64;

    match throughput {
        Some(Throughput::Bytes(bytes)) => {
            let mbps = bytes as f64 / per_iter_ns * 1e9 / (1024.0 * 1024.0);
            println!(
                "{label:<40} {per_iter_ns:>12.1} ns/iter  {mbps:>10.1} MiB/s  ({iters} iters)"
            );
        }
        Some(Throughput::Elements(n)) => {
            let eps = n as f64 / per_iter_ns * 1e9;
            println!(
                "{label:<40} {per_iter_ns:>12.1} ns/iter  {eps:>10.0} elem/s  ({iters} iters)"
            );
        }
        None => {
            println!("{label:<40} {per_iter_ns:>12.1} ns/iter  ({iters} iters)");
        }
    }
}

/// Re-export for closures that imported it from criterion rather than
/// `std::hint` (both spellings appear in the wild).
pub use std::hint::black_box;

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion::default();
        let mut ran = 0u64;
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        assert!(ran > 0);
    }

    #[test]
    fn group_with_input_and_throughput() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(5);
        group.throughput(Throughput::Bytes(1024));
        group.bench_with_input(BenchmarkId::new("sum", 4), &[1u8, 2, 3, 4][..], |b, d| {
            b.iter(|| d.iter().map(|&x| u32::from(x)).sum::<u32>())
        });
        group.finish();
    }
}
