//! Arrival processes: reshape when a workload's jobs are submitted.
//!
//! The SWIM generator buckets arrivals per hour; this module offers finer
//! control for synthetic studies — Poisson streams, bursts, and a diurnal
//! (day/night) intensity profile — applied to any job list in place.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::job::JobSpec;

/// An arrival process over a horizon of `horizon_s` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// All jobs at t = 0 (the offline setting).
    Offline,
    /// Homogeneous Poisson: exponential inter-arrival gaps with the rate
    /// chosen so the expected span of n jobs fills the horizon.
    Poisson,
    /// `k` equally spaced bursts; jobs split round-robin across bursts.
    Bursts(usize),
    /// Sinusoidal diurnal intensity: arrivals concentrate around the
    /// horizon's "daytime" (peak at 40 % of the horizon), thinning at the
    /// edges. Models the day/night swing of the Facebook trace.
    Diurnal,
}

/// Assign arrival times to `jobs` in place (jobs are then sorted by
/// arrival and re-named ids are *not* changed — callers relying on
/// id-equals-arrival-rank should re-bind).
pub fn assign_arrivals(jobs: &mut [JobSpec], process: ArrivalProcess, horizon_s: f64, seed: u64) {
    assert!(horizon_s >= 0.0);
    let n = jobs.len();
    if n == 0 {
        return;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match process {
        ArrivalProcess::Offline => {
            for j in jobs.iter_mut() {
                j.arrival_s = 0.0;
            }
        }
        ArrivalProcess::Poisson => {
            // Inverse-transform exponential gaps with mean horizon/n,
            // clipped to the horizon.
            let mean_gap = horizon_s / n as f64;
            let mut t = 0.0;
            for j in jobs.iter_mut() {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t += -mean_gap * u.ln();
                j.arrival_s = t.min(horizon_s);
            }
        }
        ArrivalProcess::Bursts(k) => {
            let k = k.max(1);
            for (i, j) in jobs.iter_mut().enumerate() {
                let burst = i % k;
                // Bursts at the start of each of k equal segments, with a
                // small jitter so events don't collide exactly.
                let base = horizon_s * burst as f64 / k as f64;
                j.arrival_s = base + rng.gen_range(0.0..1.0);
            }
        }
        ArrivalProcess::Diurnal => {
            // Rejection-sample against intensity 0.1 + 0.9·sin²(π·t/H)
            // shifted to peak at 0.4·H.
            for j in jobs.iter_mut() {
                loop {
                    let t: f64 = rng.gen_range(0.0..horizon_s);
                    let phase = (t / horizon_s - 0.4) * std::f64::consts::PI;
                    let intensity = 0.1 + 0.9 * phase.cos().powi(2);
                    if rng.gen_range(0.0..1.0) < intensity {
                        j.arrival_s = t;
                        break;
                    }
                }
            }
        }
    }
    jobs.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::JobKind;

    fn jobs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec::new(i, format!("j{i}"), JobKind::Grep, 64.0, 1))
            .collect()
    }

    #[test]
    fn offline_zeroes_everything() {
        let mut js = jobs(5);
        js[3].arrival_s = 99.0;
        assign_arrivals(&mut js, ArrivalProcess::Offline, 1000.0, 1);
        assert!(js.iter().all(|j| j.arrival_s == 0.0));
    }

    #[test]
    fn poisson_is_sorted_within_horizon_and_seeded() {
        let mut a = jobs(50);
        let mut b = jobs(50);
        assign_arrivals(&mut a, ArrivalProcess::Poisson, 3600.0, 7);
        assign_arrivals(&mut b, ArrivalProcess::Poisson, 3600.0, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_s, y.arrival_s);
        }
        for w in a.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        assert!(a.iter().all(|j| (0.0..=3600.0).contains(&j.arrival_s)));
        // Gaps actually vary (not degenerate).
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| w[1].arrival_s - w[0].arrival_s)
            .collect();
        let distinct = gaps.iter().filter(|&&g| g > 1e-9).count();
        assert!(distinct > 10);
    }

    #[test]
    fn bursts_cluster_arrivals() {
        let mut js = jobs(40);
        assign_arrivals(&mut js, ArrivalProcess::Bursts(4), 4000.0, 3);
        // Every arrival within 1 s of a burst epoch (0, 1000, 2000, 3000).
        for j in &js {
            let nearest = (j.arrival_s / 1000.0).floor() * 1000.0;
            assert!(j.arrival_s - nearest <= 1.0 + 1e-9, "{}", j.arrival_s);
        }
        // All four bursts used.
        let used: std::collections::BTreeSet<u64> =
            js.iter().map(|j| (j.arrival_s / 1000.0) as u64).collect();
        assert_eq!(used.len(), 4);
    }

    #[test]
    fn diurnal_concentrates_midday() {
        let mut js = jobs(2000);
        assign_arrivals(&mut js, ArrivalProcess::Diurnal, 86_400.0, 5);
        // More arrivals in the middle half than the outer half.
        let mid = js
            .iter()
            .filter(|j| (0.15..0.65).contains(&(j.arrival_s / 86_400.0)))
            .count();
        assert!(mid as f64 > 0.55 * js.len() as f64, "mid {mid}");
    }

    #[test]
    fn empty_and_zero_horizon_are_safe() {
        let mut none: Vec<JobSpec> = vec![];
        assign_arrivals(&mut none, ArrivalProcess::Poisson, 100.0, 1);
        let mut one = jobs(3);
        assign_arrivals(&mut one, ArrivalProcess::Poisson, 0.0, 1);
        assert!(one.iter().all(|j| j.arrival_s == 0.0));
    }
}
