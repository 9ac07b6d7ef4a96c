//! Offline stand-in for `criterion`.
//!
//! Provides the bench-definition API this workspace's benches use
//! (`criterion_group!` / `criterion_main!`, `Criterion::benchmark_group`,
//! `bench_with_input`, `bench_function`, `BenchmarkId`, `black_box`) with
//! a simple wall-clock harness: each benchmark runs `sample_size` samples
//! after one warm-up and prints min / mean / max per iteration. No
//! statistics, plots, or baselines — just honest numbers offline.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label)
    }
}

/// Per-iteration timer handle passed to bench closures.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Time `routine`, running it once per sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up (not recorded).
        black_box(routine());
        for _ in 0..self.sample_size {
            #[expect(clippy::disallowed_methods, reason = "a benchmark harness times")]
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

fn report(name: &str, samples: &[Duration]) {
    if samples.is_empty() {
        println!("{name:<50} (no samples)");
        return;
    }
    let ns: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e9).collect();
    let mean = ns.iter().sum::<f64>() / ns.len() as f64;
    let min = ns.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ns.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let fmt = |x: f64| -> String {
        if x >= 1e9 {
            format!("{:.3} s", x / 1e9)
        } else if x >= 1e6 {
            format!("{:.3} ms", x / 1e6)
        } else if x >= 1e3 {
            format!("{:.3} µs", x / 1e3)
        } else {
            format!("{x:.0} ns")
        }
    };
    println!("{name:<50} [{} {} {}]", fmt(min), fmt(mean), fmt(max));
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Number of recorded samples per benchmark (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0);
        self.sample_size = n;
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b, input);
        report(&format!("{}/{}", self.name, id), &b.samples);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b);
        report(&format!("{}/{}", self.name, id), &b.samples);
        self
    }

    pub fn finish(self) {}
}

/// Harness entry point, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group {name}");
        BenchmarkGroup {
            name,
            sample_size: 10,
            _criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: 10,
        };
        f(&mut b);
        report(&name.to_string(), &b.samples);
        self
    }
}

/// Define a bench group: `criterion_group!(benches, f1, f2);`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Define the bench binary's `main`: `criterion_main!(benches);`.
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
    fn groups_and_ids_run() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        let mut runs = 0;
        g.bench_with_input(BenchmarkId::new("f", 1), &2u32, |b, &x| {
            b.iter(|| {
                runs += 1;
                x * 2
            });
        });
        g.finish();
        assert_eq!(runs, 4); // 1 warm-up + 3 samples
        assert_eq!(BenchmarkId::new("a", "b").to_string(), "a/b");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }
}
