//! Offline stand-in for `criterion`.
//!
//! Implements the macro/builder surface the workspace's benches use —
//! [`criterion_group!`], [`criterion_main!`], [`Criterion::bench_function`],
//! benchmark groups with [`BenchmarkId`], and [`Bencher::iter`] — on a
//! plain wall-clock sampler: per benchmark it warms up, auto-scales the
//! iteration count to a target sample duration, takes `sample_size` samples,
//! and prints min/median/mean. No statistical regression analysis, HTML
//! reports, or plotting; throughput numbers from this harness are
//! directional, which is all the repro's CI smoke needs.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target time per sample; iteration counts auto-scale to roughly this.
const TARGET_SAMPLE: Duration = Duration::from_millis(20);

/// Identifier for one parameterised benchmark (`name/param`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("variant", n)` renders as `variant/n`.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        Self {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Id from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Times closures handed to it by a benchmark body.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    /// Collected per-iteration mean of each sample, in nanoseconds.
    samples_ns: Vec<f64>,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Self {
            sample_size,
            samples_ns: Vec::with_capacity(sample_size),
        }
    }

    /// Runs `f` repeatedly, timing batches of iterations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and calibration: find how many iterations fill the target.
        let mut iters_per_sample = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let elapsed = t0.elapsed();
            if elapsed >= TARGET_SAMPLE / 4 || iters_per_sample >= 1 << 20 {
                let scale = TARGET_SAMPLE.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
                iters_per_sample =
                    ((iters_per_sample as f64 * scale).ceil() as u64).clamp(1, 1 << 24);
                break;
            }
            iters_per_sample *= 4;
        }
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let ns = t0.elapsed().as_secs_f64() * 1e9 / iters_per_sample as f64;
            self.samples_ns.push(ns);
        }
    }

    fn report(&self, label: &str) {
        if self.samples_ns.is_empty() {
            println!("{label:<40} (no samples)");
            return;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_by(f64::total_cmp);
        let min = sorted[0];
        let median = sorted[sorted.len() / 2];
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        println!(
            "{label:<40} min {}  median {}  mean {}",
            fmt_ns(min),
            fmt_ns(median),
            fmt_ns(mean)
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:8.1} ns")
    } else if ns < 1e6 {
        format!("{:8.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:8.2} ms", ns / 1e6)
    } else {
        format!("{:8.2} s ", ns / 1e9)
    }
}

/// The benchmark driver (drop-in for `criterion::Criterion`).
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark (builder-style).
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Ignored; kept for API compatibility.
    #[must_use]
    pub fn measurement_time(self, _d: Duration) -> Self {
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        b.report(name);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group: {name}");
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: self,
            name,
            sample_size,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and sample size.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the sample count for subsequent benches in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        b.report(&format!("{}/{id}", self.name));
        self
    }

    /// Runs one benchmark parameterised by a borrowed input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b, input);
        b.report(&format!("{}/{id}", self.name));
        self
    }

    /// Ends the group (printing nothing extra).
    pub fn finish(self) {}
}

/// Declares a benchmark group function (both criterion forms accepted).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $cfg;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench binary's `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` forwards harness flags like `--bench`; a smoke
            // harness has nothing to configure, so they are ignored.
            $($group();)+
        }
    };
}
