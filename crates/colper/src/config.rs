//! Attack configuration, with the paper's hyper-parameters as defaults.

use crate::Objective;

/// What one [`crate::AttackSession`] run optimizes for, and how.
///
/// Defaults follow the paper: `λ1 = λ2 = 1`, `α = 10` smoothness
/// neighbors, Adam with learning rate 0.01, plateau-noise every
/// `max(1, steps/100)` iterations. The paper runs `Steps = 1000`; the
/// constructors default to a CPU-friendly 150, and
/// [`AttackConfig::paper_scale`] restores 1000.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackConfig {
    /// What the attacker wants (see [`Objective`]). Only
    /// [`Objective::Targeted`] optimizes the targeted hinge (Eq. 7) and
    /// convergence test; every other objective is non-targeted (Eq. 8).
    pub objective: Objective,
    /// Maximum number of optimization iterations (`Steps`).
    pub steps: usize,
    /// Weight of the adversarial loss (`λ1`).
    pub lambda1: f32,
    /// Weight of the smoothness penalty (`λ2`).
    pub lambda2: f32,
    /// Number of nearest neighbors in the smoothness penalty (`α`).
    pub alpha: usize,
    /// Adam learning rate over `w`.
    pub lr: f32,
    /// Convergence threshold: for non-targeted attacks, stop when the
    /// accuracy over attacked points drops below this (the paper uses
    /// `1/classes`, i.e. random guessing); for targeted attacks, stop
    /// when SR exceeds it (the paper uses 0.95). `None` picks the
    /// paper's value automatically.
    pub convergence_threshold: Option<f32>,
    /// Magnitude of the uniform plateau-restart noise added to `w`.
    pub noise_scale: f32,
    /// Forward/backward passes averaged per iteration (expectation over
    /// transforms). `1` reproduces the paper; larger values stabilize
    /// gradients against stochastic victims such as RandLA-Net's random
    /// sampling.
    pub gradient_samples: usize,
    /// Half-width of a random scene-lighting multiplier applied to the
    /// colors *inside* each gradient sample (EoT over illumination, for
    /// physically robust perturbations). `0.0` (the paper's setting)
    /// disables it; combine with `gradient_samples > 1`.
    pub lighting_eot: f32,
    /// Record the attacker's metric at every iteration in
    /// [`crate::AttackResult::metric_history`] (small extra memory).
    pub record_trajectory: bool,
}

impl AttackConfig {
    /// A non-targeted attack configuration with CPU-friendly step count
    /// (`steps`).
    pub fn non_targeted(steps: usize) -> Self {
        Self {
            objective: Objective::NonTargeted,
            steps,
            lambda1: 1.0,
            lambda2: 1.0,
            alpha: 10,
            lr: 0.01,
            convergence_threshold: None,
            noise_scale: 0.2,
            gradient_samples: 1,
            lighting_eot: 0.0,
            record_trajectory: false,
        }
    }

    /// A targeted attack configuration toward `target`.
    pub fn targeted(steps: usize, target: usize) -> Self {
        Self { objective: Objective::Targeted { target }, ..Self::non_targeted(steps) }
    }

    /// Restores the paper's `Steps = 1000`.
    pub fn paper_scale(self) -> Self {
        Self { steps: 1000, ..self }
    }

    /// The effective convergence threshold for `classes` classes.
    pub fn threshold(&self, classes: usize) -> f32 {
        match (self.convergence_threshold, &self.objective) {
            (Some(t), _) => t,
            (None, Objective::Targeted { .. }) => 0.95,
            (None, _) => 1.0 / classes as f32,
        }
    }

    pub(crate) fn validate(&self, classes: usize) {
        assert!(self.steps > 0, "AttackConfig: steps must be positive");
        assert!(self.alpha > 0, "AttackConfig: alpha must be positive");
        assert!(self.lr > 0.0, "AttackConfig: lr must be positive");
        assert!(self.gradient_samples > 0, "AttackConfig: gradient_samples must be positive");
        if let Objective::Targeted { target } = self.objective {
            assert!(target < classes, "AttackConfig: target class {target} out of range");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = AttackConfig::non_targeted(150);
        assert_eq!(c.lambda1, 1.0);
        assert_eq!(c.lambda2, 1.0);
        assert_eq!(c.alpha, 10);
        assert_eq!(c.lr, 0.01);
        assert_eq!(c.paper_scale().steps, 1000);
    }

    #[test]
    fn automatic_thresholds_match_paper() {
        let nt = AttackConfig::non_targeted(10);
        // 1/13 for S3DIS-like, 1/8 for Semantic3D-like.
        assert!((nt.threshold(13) - 1.0 / 13.0).abs() < 1e-6);
        assert!((nt.threshold(8) - 0.125).abs() < 1e-6);
        let t = AttackConfig::targeted(10, 2);
        assert!((t.threshold(13) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn explicit_threshold_wins() {
        let mut c = AttackConfig::non_targeted(10);
        c.convergence_threshold = Some(0.42);
        assert_eq!(c.threshold(13), 0.42);
    }

    #[test]
    #[should_panic(expected = "target class")]
    fn validates_target_range() {
        AttackConfig::targeted(10, 20).validate(13);
    }
}
