//! The public scheduling configuration surface.
//!
//! [`SchedulerConfig`] is the one typed knob set every entry point — the
//! simulator, `lips-serve`, the benches — consumes. It replaces the
//! batch-era sprawl of flat fields reached through ad-hoc struct literals:
//! construct it through a preset ([`SchedulerConfig::preset`], or the
//! named constructors), refine it through the validating
//! [`SchedulerConfigBuilder`], and hand it to
//! [`crate::LipsScheduler::new`].
//!
//! Every knob is a *model-size* or *policy* knob: presets and builder
//! settings can change how fast an epoch solves or how much of the queue
//! it sees, but a certified optimum is certified under any of them. The
//! solve path has no switch: every epoch runs the one degradation ladder
//! (see [`crate::lips`]), whose column-generation master warm-starts from
//! what the previous epoch carried.

use std::fmt;

/// Tuning for [`crate::LipsScheduler`] — the one configuration type
/// shared by the simulator, the `lips-serve` daemon, and the benches.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Epoch length `e` in seconds — the paper's cost↔makespan knob
    /// (Figure 8): longer epochs let the LP concentrate work on the
    /// cheapest nodes; shorter epochs force parallelism.
    pub epoch_s: f64,
    /// Fake-node price in dollars per ECU-second. Must dwarf every real
    /// price (real prices are ~1e-5 $/ECU-s).
    pub fake_cost: f64,
    /// Jobs per epoch LP (FIFO beyond this wait a turn); keeps solve times
    /// flat on trace workloads.
    pub max_jobs_per_lp: usize,
    /// Machine-candidate cap per job (`None` = exact model).
    pub max_machines_per_job: Option<usize>,
    /// New-copy store-candidate cap per job (`None` = exact model).
    pub max_new_stores_per_job: Option<usize>,
    /// Holder-store cap per job: only the K stores holding the most
    /// unread data enter the LP (the rest defer to later epochs via the
    /// fake node). `None` = all holders.
    pub max_holder_stores_per_job: Option<usize>,
    /// Allocations smaller than this fraction of a natural task are
    /// deferred to the next epoch rather than launched as micro-tasks
    /// (the paper's minimum viable task size) — unless they are the last
    /// crumbs of a job.
    pub min_task_fraction: f64,
    /// Enforce the per-machine read-time budget (constraint (21)).
    pub enforce_transfer_time: bool,
    /// Fair-sharing strength σ ∈ [0, 1]: each FairScheduler pool with
    /// queued work is guaranteed at least
    /// `σ · min(pool demand, capacity / #pools)` ECU-seconds per epoch.
    /// 0 disables fairness (pure cost optimization, the paper's default);
    /// if the fairness floors make an epoch LP infeasible the scheduler
    /// retries without them.
    pub fairness: f64,
    /// Worker threads for model build, column pricing, and certification
    /// (`None` = the `LIPS_THREADS` environment variable, else the
    /// machine's available parallelism). Pure throughput tuning: the
    /// deterministic merge discipline of `lips-par` makes every solve
    /// bitwise identical at any value, including 1.
    pub threads: Option<usize>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            epoch_s: 400.0,
            fake_cost: 1.0,
            max_jobs_per_lp: 48,
            max_machines_per_job: None,
            max_new_stores_per_job: Some(8),
            max_holder_stores_per_job: None,
            min_task_fraction: 0.05,
            enforce_transfer_time: true,
            fairness: 0.0,
            threads: None,
        }
    }
}

/// The validated preset families — one per cluster scale the paper's
/// evaluation exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// ≤ ~20-node clusters: exact model, no pruning.
    Small,
    /// ~100-node clusters / trace workloads: pruned candidates and a
    /// smaller per-epoch job window.
    LargeCluster,
}

impl Preset {
    /// Parse a preset name as the CLIs spell it.
    pub fn parse(name: &str) -> Option<Preset> {
        match name {
            "small" => Some(Preset::Small),
            "large" | "large_cluster" => Some(Preset::LargeCluster),
            _ => None,
        }
    }
}

impl SchedulerConfig {
    /// Start a validating builder from the default configuration.
    pub fn builder() -> SchedulerConfigBuilder {
        SchedulerConfigBuilder {
            cfg: SchedulerConfig::default(),
        }
    }

    /// Start a validating builder from a preset.
    pub fn preset(preset: Preset, epoch_s: f64) -> SchedulerConfigBuilder {
        let cfg = match preset {
            Preset::Small => SchedulerConfig::small_cluster(epoch_s),
            Preset::LargeCluster => SchedulerConfig::large_cluster(epoch_s),
        };
        SchedulerConfigBuilder { cfg }
    }

    /// Preset for ≤ ~20-node clusters: exact model.
    pub fn small_cluster(epoch_s: f64) -> Self {
        SchedulerConfig {
            epoch_s,
            max_new_stores_per_job: None,
            ..Default::default()
        }
    }

    /// Preset for ~100-node clusters / trace workloads: pruned candidates.
    pub fn large_cluster(epoch_s: f64) -> Self {
        SchedulerConfig {
            epoch_s,
            max_jobs_per_lp: 16,
            max_machines_per_job: Some(16),
            max_new_stores_per_job: Some(6),
            max_holder_stores_per_job: Some(20),
            ..Default::default()
        }
    }

    /// Check every cross-field invariant the builder enforces. Presets
    /// always validate; hand-rolled struct literals can call this before
    /// use.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.epoch_s.is_finite() && self.epoch_s > 0.0) {
            return Err(ConfigError::NonPositiveEpoch(self.epoch_s));
        }
        if !(self.fake_cost.is_finite() && self.fake_cost > 0.0) {
            return Err(ConfigError::NonPositiveFakeCost(self.fake_cost));
        }
        if self.max_jobs_per_lp == 0 {
            return Err(ConfigError::ZeroJobsPerLp);
        }
        if !(0.0..=1.0).contains(&self.min_task_fraction) {
            return Err(ConfigError::MinTaskFractionOutOfRange(
                self.min_task_fraction,
            ));
        }
        if !(0.0..=1.0).contains(&self.fairness) {
            return Err(ConfigError::FairnessOutOfRange(self.fairness));
        }
        if self.threads == Some(0) {
            return Err(ConfigError::ZeroThreads);
        }
        Ok(())
    }
}

/// Why a [`SchedulerConfigBuilder::build`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `epoch_s` must be finite and positive.
    NonPositiveEpoch(f64),
    /// `fake_cost` must be finite and positive (it prices deferral).
    NonPositiveFakeCost(f64),
    /// `max_jobs_per_lp` of zero would starve every epoch LP.
    ZeroJobsPerLp,
    /// `min_task_fraction` must lie in `[0, 1]`.
    MinTaskFractionOutOfRange(f64),
    /// `fairness` (σ) must lie in `[0, 1]`.
    FairnessOutOfRange(f64),
    /// `threads` of zero cannot run anything; use `None` for the default.
    ZeroThreads,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositiveEpoch(e) => {
                write!(f, "epoch_s must be finite and > 0 (got {e})")
            }
            ConfigError::NonPositiveFakeCost(c) => {
                write!(f, "fake_cost must be finite and > 0 (got {c})")
            }
            ConfigError::ZeroJobsPerLp => write!(f, "max_jobs_per_lp must be >= 1"),
            ConfigError::MinTaskFractionOutOfRange(v) => {
                write!(f, "min_task_fraction must lie in [0, 1] (got {v})")
            }
            ConfigError::FairnessOutOfRange(v) => {
                write!(f, "fairness must lie in [0, 1] (got {v})")
            }
            ConfigError::ZeroThreads => {
                write!(f, "threads must be >= 1 (use None for the default)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`SchedulerConfig`] with validation at [`build`]
/// ([`SchedulerConfigBuilder::build`]) time. Start from
/// [`SchedulerConfig::builder`] (defaults) or
/// [`SchedulerConfig::preset`].
#[derive(Debug, Clone)]
pub struct SchedulerConfigBuilder {
    cfg: SchedulerConfig,
}

impl SchedulerConfigBuilder {
    /// Epoch length `e` in seconds (the cost↔makespan knob).
    #[must_use]
    pub fn epoch_s(mut self, epoch_s: f64) -> Self {
        self.cfg.epoch_s = epoch_s;
        self
    }

    /// Fake-node price in dollars per ECU-second.
    #[must_use]
    pub fn fake_cost(mut self, fake_cost: f64) -> Self {
        self.cfg.fake_cost = fake_cost;
        self
    }

    /// Jobs per epoch LP (FIFO beyond this wait a turn).
    #[must_use]
    pub fn max_jobs_per_lp(mut self, n: usize) -> Self {
        self.cfg.max_jobs_per_lp = n;
        self
    }

    /// Machine-candidate cap per job (`None` = exact model).
    #[must_use]
    pub fn max_machines_per_job(mut self, n: Option<usize>) -> Self {
        self.cfg.max_machines_per_job = n;
        self
    }

    /// New-copy store-candidate cap per job (`None` = exact model).
    #[must_use]
    pub fn max_new_stores_per_job(mut self, n: Option<usize>) -> Self {
        self.cfg.max_new_stores_per_job = n;
        self
    }

    /// Holder-store cap per job (`None` = all holders).
    #[must_use]
    pub fn max_holder_stores_per_job(mut self, n: Option<usize>) -> Self {
        self.cfg.max_holder_stores_per_job = n;
        self
    }

    /// Minimum viable task size as a fraction of a natural task.
    #[must_use]
    pub fn min_task_fraction(mut self, f: f64) -> Self {
        self.cfg.min_task_fraction = f;
        self
    }

    /// Enforce the per-machine read-time budget (constraint (21)).
    #[must_use]
    pub fn enforce_transfer_time(mut self, on: bool) -> Self {
        self.cfg.enforce_transfer_time = on;
        self
    }

    /// Fair-sharing strength σ ∈ [0, 1].
    #[must_use]
    pub fn fairness(mut self, sigma: f64) -> Self {
        self.cfg.fairness = sigma;
        self
    }

    /// Worker threads (`None` = `LIPS_THREADS`, else available
    /// parallelism). Bitwise-identical results at any value.
    #[must_use]
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Validate every cross-field invariant and hand back the config.
    pub fn build(self) -> Result<SchedulerConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for p in [Preset::Small, Preset::LargeCluster] {
            let cfg = SchedulerConfig::preset(p, 400.0).build().unwrap();
            assert!(cfg.validate().is_ok());
        }
    }

    #[test]
    fn preset_knobs_match_their_scale() {
        let small = SchedulerConfig::preset(Preset::Small, 100.0)
            .build()
            .unwrap();
        assert_eq!(small.max_new_stores_per_job, None);
        assert_eq!(small.max_machines_per_job, None);

        let large = SchedulerConfig::preset(Preset::LargeCluster, 100.0)
            .build()
            .unwrap();
        assert_eq!(large.max_jobs_per_lp, 16);
        assert_eq!(large.max_machines_per_job, Some(16));
    }

    #[test]
    fn preset_names_parse() {
        assert_eq!(Preset::parse("small"), Some(Preset::Small));
        assert_eq!(Preset::parse("large_cluster"), Some(Preset::LargeCluster));
        assert_eq!(Preset::parse("huge"), None);
        assert_eq!(Preset::parse("gigantic"), None);
    }

    #[test]
    fn builder_rejects_bad_epoch() {
        let err = SchedulerConfig::builder().epoch_s(0.0).build().unwrap_err();
        assert_eq!(err, ConfigError::NonPositiveEpoch(0.0));
        assert!(SchedulerConfig::builder()
            .epoch_s(f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_out_of_range_fractions() {
        assert!(SchedulerConfig::builder()
            .min_task_fraction(1.5)
            .build()
            .is_err());
        assert!(SchedulerConfig::builder().fairness(-0.1).build().is_err());
        assert!(SchedulerConfig::builder()
            .max_jobs_per_lp(0)
            .build()
            .is_err());
        assert!(SchedulerConfig::builder().threads(Some(0)).build().is_err());
    }

    #[test]
    fn config_errors_display() {
        // Every variant renders a non-empty, informative message.
        let errs = [
            ConfigError::NonPositiveEpoch(0.0),
            ConfigError::NonPositiveFakeCost(-1.0),
            ConfigError::ZeroJobsPerLp,
            ConfigError::MinTaskFractionOutOfRange(2.0),
            ConfigError::FairnessOutOfRange(-1.0),
            ConfigError::ZeroThreads,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn builder_threads_knob_round_trips() {
        let cfg = SchedulerConfig::preset(Preset::Small, 50.0)
            .threads(Some(2))
            .build()
            .unwrap();
        assert_eq!(cfg.threads, Some(2));
        assert_eq!(cfg.epoch_s, 50.0);
    }
}
