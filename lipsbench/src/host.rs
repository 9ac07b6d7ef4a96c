//! Host-speed probe: scales host times to a fixed reference speed.
//!
//! On the 2-vCPU VM this benchmark was sized on, the same work ran up to
//! 1.5 times faster or slower from one few-second stretch to the next and
//! from one set of runs to the next, with the process on the CPU the whole
//! time (on-CPU time equalled wall-clock, steal time was nil): the
//! neighbours on the host's cores, not descheduling. Wall-clock alone
//! cannot tell that from a change in the program.
//!
//! So right after every timed interval the benchmark runs this probe: two
//! short kernels of its own that the program never touches (a streaming
//! multiply-add over 32 KB and a 48 × 48 dense LU elimination, about 40 µs
//! together). Each kernel's time is compared with its time on the
//! reference host, and the interval is scaled by the geometric mean of the
//! two ratios. Measured over the same deterministic epochs repeated within
//! and across processes, the scaled times varied by 2–4 % from round to
//! round where wall-clock varied by 19–58 %; either kernel alone left
//! 3–18 %.
//!
//! The reference times below fix the unit: "ms at reference speed" reads as
//! ms of that VM at its median speed. They must not change, or every
//! scaled host time moves with them.

use std::hint::black_box;
use std::time::Instant;

/// Elements of the streaming kernel's two vectors (2 × 32 KB).
const STREAM_LEN: usize = 4096;
/// Passes of the streaming kernel over its vectors.
const STREAM_PASSES: usize = 8;
/// Order of the dense LU kernel's matrix.
const LU_N: usize = 48;
/// Median kernel times on the reference host (the 2-vCPU VM), in ns.
const STREAM_REF_NS: f64 = 13_000.0;
const LU_REF_NS: f64 = 24_000.0;

/// The probe's fixed inputs and scratch space, allocated once.
pub struct Probe {
    y: Vec<f64>,
    z: Vec<f64>,
    m: Vec<f64>,
    lu: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        // Fixed xorshift stream: the probe's inputs never change.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 1000.0
        };
        let y: Vec<f64> = (0..STREAM_LEN).map(|_| unit()).collect();
        // Diagonally dominant, so elimination without pivoting is stable.
        let m: Vec<f64> = (0..LU_N * LU_N)
            .map(|k| {
                unit()
                    + if k % (LU_N + 1) == 0 {
                        LU_N as f64
                    } else {
                        0.0
                    }
            })
            .collect();
        Probe {
            z: y.clone(),
            y,
            lu: m.clone(),
            m,
        }
    }

    /// Run both kernels once; returns reference time / this host's time
    /// now. Multiply a host duration measured next to the probe by it.
    pub fn speed(&mut self) -> f64 {
        // Copying the inputs also brings them into cache, so the timed
        // kernels do not depend on what the program left there.
        self.z.copy_from_slice(&self.y);
        self.lu.copy_from_slice(&self.m);
        let t0 = Instant::now();
        stream(black_box(&mut self.z), black_box(&self.y));
        let t1 = Instant::now();
        eliminate(black_box(&mut self.lu), LU_N);
        let t2 = Instant::now();
        black_box((&self.z, &self.lu));
        let ns = |a: Instant, b: Instant| (b.duration_since(a).as_nanos() as f64).max(1.0);
        (STREAM_REF_NS / ns(t0, t1) * (LU_REF_NS / ns(t1, t2))).sqrt()
    }
}

/// `z ← a·z + y`, `STREAM_PASSES` times.
fn stream(z: &mut [f64], y: &[f64]) {
    for pass in 0..STREAM_PASSES {
        let a = 0.5 + pass as f64 * 1e-3;
        for (zi, yi) in z.iter_mut().zip(y) {
            *zi = *zi * a + *yi;
        }
    }
}

/// In-place Gaussian elimination of the row-major `n × n` matrix `a`.
fn eliminate(a: &mut [f64], n: usize) {
    for k in 0..n {
        let pivot = a[k * n + k];
        for i in k + 1..n {
            let f = a[i * n + k] / pivot;
            for j in k..n {
                a[i * n + j] -= f * a[k * n + j];
            }
        }
    }
}
