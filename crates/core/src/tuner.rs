//! Closed-loop epoch-length tuning on the paper's cost-vs-makespan knob.
//!
//! Figure 8 of the paper: longer epochs give the LP more room to place
//! work on cheap nodes (lower $) at the price of slower drain; shorter
//! epochs chase makespan. §V-B lets the epoch "be either fixed in
//! advance, or adaptively changed as the performance and cost preferences
//! are changed by users". [`EpochTuner`] is that adaptive rule, shared by
//! the simulator's [`crate::AdaptiveLips`] and the `lips-serve` daemon:
//!
//! * a cost-preference dial σ ∈ [0, 1] selects a *target node set* — the
//!   machines whose prices are within the bottom `(1 − σ)` share of the
//!   cluster's price range (σ = 1 → only the cheapest-priced nodes, σ = 0
//!   → every node);
//! * the ideal epoch drains the current backlog in `target_epochs`
//!   epochs at that node set's throughput, clamped to a safe band;
//! * the next epoch moves toward it as `α·ideal + (1−α)·current`, so the
//!   length ramps rather than jumps (α = 1 jumps).
//!
//! Everything here is pure arithmetic on virtual-time state — no clocks,
//! no randomness — so tuned trajectories stay bitwise reproducible.

use lips_cluster::Cluster;

/// Tuning band, node-set dial, and loop gain.
#[derive(Debug, Clone, Copy)]
pub struct TuneConfig {
    /// Shortest epoch the tuner will pick (makespan end of the knob).
    pub min_epoch_s: f64,
    /// Longest epoch the tuner will pick (cost end of the knob).
    pub max_epoch_s: f64,
    /// Target number of epochs the current backlog should take to drain.
    pub target_epochs: f64,
    /// Exponential smoothing factor α in `(0, 1]`: 1 jumps straight to
    /// the ideal length, small values ramp slowly.
    pub smoothing: f64,
    /// Cost preference σ: 1.0 sizes epochs to the cheapest-priced nodes
    /// alone (longest epochs, fewest dollars), 0.0 to every node
    /// (shortest epochs).
    pub cost_preference: f64,
}

impl Default for TuneConfig {
    /// The `lips-serve` daemon's loop: every node, two epochs per
    /// backlog, half-way steps.
    fn default() -> Self {
        TuneConfig {
            min_epoch_s: 100.0,
            max_epoch_s: 1600.0,
            target_epochs: 2.0,
            smoothing: 0.5,
            cost_preference: 0.0,
        }
    }
}

impl TuneConfig {
    /// [`crate::AdaptiveLips`]'s rule: the whole backlog in one epoch of
    /// the cheapest nodes, no smoothing.
    pub fn adaptive() -> Self {
        TuneConfig {
            min_epoch_s: 60.0,
            max_epoch_s: 4000.0,
            target_epochs: 1.0,
            smoothing: 1.0,
            cost_preference: 1.0,
        }
    }
}

/// The tuner itself; stateless beyond its config (the "state" of the loop
/// is the scheduler's current epoch length, passed in each step).
#[derive(Debug, Clone, Copy)]
pub struct EpochTuner {
    pub cfg: TuneConfig,
}

impl EpochTuner {
    pub fn new(cfg: TuneConfig) -> Self {
        EpochTuner { cfg }
    }

    /// ECU rate (ECU-seconds per second) of the σ-selected target nodes
    /// of `cluster`; revoked machines contribute nothing.
    pub fn target_rate(&self, cluster: &Cluster) -> f64 {
        let min = cluster.min_cpu_cost();
        let max = cluster.max_cpu_cost();
        // Price cutoff: bottom (1-σ) share of the price range. σ=1 keeps a
        // small tolerance so equal-cheapest nodes all qualify.
        let cutoff = min + (max - min) * (1.0 - self.cfg.cost_preference) + 1e-12;
        cluster
            .machines
            .iter()
            .filter(|m| m.cpu_cost <= cutoff)
            .map(|m| m.tp_ecu)
            .sum()
    }

    /// Next epoch length given the queue backlog (unassigned ECU-seconds),
    /// the target nodes' throughput ([`EpochTuner::target_rate`], ECU per
    /// second), and the current epoch length.
    pub fn next_epoch(&self, backlog_ecu: f64, rate_ecu_per_s: f64, current_s: f64) -> f64 {
        let c = &self.cfg;
        let clamp = |x: f64| x.clamp(c.min_epoch_s, c.max_epoch_s);
        if rate_ecu_per_s <= 0.0 {
            // No live target node: epoch length is moot; hold position.
            return clamp(current_s);
        }
        let ideal = if backlog_ecu > 0.0 {
            backlog_ecu / (rate_ecu_per_s * c.target_epochs)
        } else {
            // Idle: drift to the short end so the next arrival gets a
            // responsive first epoch.
            c.min_epoch_s
        };
        let alpha = c.smoothing.clamp(0.0, 1.0);
        clamp(alpha * clamp(ideal) + (1.0 - alpha) * current_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::ec2_20_node;

    #[test]
    fn clamps_to_band() {
        let t = EpochTuner::new(TuneConfig {
            smoothing: 1.0,
            ..Default::default()
        });
        // Enormous backlog saturates at max.
        assert_eq!(t.next_epoch(1e12, 10.0, 400.0), t.cfg.max_epoch_s);
        // Tiny backlog floors at min.
        assert_eq!(t.next_epoch(1.0, 10.0, 400.0), t.cfg.min_epoch_s);
    }

    #[test]
    fn targets_backlog_over_target_epochs() {
        let t = EpochTuner::new(TuneConfig {
            smoothing: 1.0,
            target_epochs: 2.0,
            ..Default::default()
        });
        // 8000 ECU backlog at 10 ECU/s -> 800 s of work -> 400 s epochs.
        assert!((t.next_epoch(8000.0, 10.0, 100.0) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_ramps() {
        let t = EpochTuner::new(TuneConfig {
            smoothing: 0.5,
            target_epochs: 2.0,
            ..Default::default()
        });
        // Halfway from 100 toward 400.
        assert!((t.next_epoch(8000.0, 10.0, 100.0) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn dead_cluster_holds() {
        let t = EpochTuner::new(TuneConfig::default());
        assert_eq!(t.next_epoch(1000.0, 0.0, 400.0), 400.0);
        let t = EpochTuner::new(TuneConfig::adaptive());
        assert_eq!(t.next_epoch(1000.0, 0.0, 400.0), 400.0);
    }

    #[test]
    fn unit_gain_is_the_clamped_backlog_over_rate() {
        // At α = 1 and one target epoch the rule is exactly
        // `(backlog / rate).clamp(min, max)`, bit for bit, whatever the
        // current length.
        let t = EpochTuner::new(TuneConfig::adaptive());
        for (backlog, rate, current) in [
            (0.0f64, 7.5f64, 60.0f64),
            (1234.5, 7.5, 4000.0),
            (98_765.432_1, 13.0, 321.0),
            (1e9, 2.5, 60.0),
        ] {
            let want = (backlog / rate).clamp(60.0, 4000.0);
            assert_eq!(
                t.next_epoch(backlog, rate, current).to_bits(),
                want.to_bits()
            );
        }
    }

    #[test]
    fn cost_preference_selects_the_node_set() {
        let cluster = ec2_20_node(0.5, 1e9);
        let all: f64 = cluster.machines.iter().map(|m| m.tp_ecu).sum();
        let min = cluster.min_cpu_cost();
        let cheapest: f64 = cluster
            .machines
            .iter()
            .filter(|m| m.cpu_cost <= min + 1e-12)
            .map(|m| m.tp_ecu)
            .sum();
        let rate = |sigma: f64| {
            EpochTuner::new(TuneConfig {
                cost_preference: sigma,
                ..Default::default()
            })
            .target_rate(&cluster)
        };
        assert_eq!(rate(0.0).to_bits(), all.to_bits());
        assert_eq!(rate(1.0).to_bits(), cheapest.to_bits());
        assert!(cheapest < all);
    }
}
