//! The random-noise baseline the paper compares COLPER against in
//! Tables 1 and 3: uniform color noise *matched on L2* to the attack's
//! perturbation, showing that the accuracy drop is not explained by
//! noise magnitude alone. It runs as [`crate::Objective::NoiseBaseline`]
//! through [`crate::AttackSession`].

use crate::AttackResult;
use colper_metrics::ConfusionMatrix;
use colper_models::{CloudTensors, SegmentationModel};
use colper_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Draws uniform noise on the masked color entries and rescales it so
/// the clamped result has (approximately) the requested squared-L2
/// magnitude.
///
/// Clamping to `[0, 1]` shrinks the norm, so the scale is re-fit for a
/// few rounds; the residual mismatch is well under 1% for realistic
/// budgets.
///
/// # Panics
///
/// Panics when `mask.len() != orig.rows()` or `target_l2_sq < 0`.
pub fn random_color_noise(
    orig: &Matrix,
    mask: &[bool],
    target_l2_sq: f32,
    rng: &mut StdRng,
) -> Matrix {
    assert_eq!(mask.len(), orig.rows(), "mask length must equal row count");
    assert!(target_l2_sq >= 0.0, "target L2 must be non-negative");
    if target_l2_sq == 0.0 || !mask.iter().any(|&m| m) {
        return orig.clone();
    }
    // Unit-scale noise direction on the masked entries.
    let noise = Matrix::from_fn(orig.rows(), orig.cols(), |r, _| {
        if mask[r] {
            rng.gen_range(-1.0..1.0)
        } else {
            0.0
        }
    });
    let mut scale = (target_l2_sq / noise.frobenius_sq().max(1e-12)).sqrt();
    let mut out = orig.clone();
    for _ in 0..8 {
        out = orig.add(&noise.scale(scale)).expect("shape").clamp(0.0, 1.0);
        let achieved = out.sub(orig).expect("shape").frobenius_sq();
        if achieved <= 1e-12 {
            break;
        }
        let ratio = target_l2_sq / achieved;
        if (ratio - 1.0).abs() < 0.005 {
            break;
        }
        scale *= ratio.sqrt().min(4.0);
    }
    out
}

/// The baseline "attack" behind [`crate::Objective::NoiseBaseline`]:
/// random noise at a squared-L2 budget of `target_l2_sq` (typically a
/// COLPER result's [`AttackResult::l2_sq`]), evaluated exactly like an
/// attack so the harness can print both in one table row.
///
/// # Panics
///
/// Panics when `mask.len() != tensors.len()`.
pub(crate) fn noise_baseline<M: SegmentationModel + ?Sized>(
    model: &M,
    tensors: &CloudTensors,
    mask: &[bool],
    target_l2_sq: f32,
    rng: &mut StdRng,
) -> AttackResult {
    let noisy = random_color_noise(&tensors.colors, mask, target_l2_sq, rng);
    let mut perturbed = tensors.clone();
    perturbed.colors = noisy.clone();
    let preds = colper_models::predict(model, &perturbed, rng);
    let mut cm = ConfusionMatrix::new(model.num_classes());
    let masked_preds: Vec<usize> =
        preds.iter().zip(mask).filter(|(_, &m)| m).map(|(&p, _)| p).collect();
    let masked_labels: Vec<usize> =
        tensors.labels.iter().zip(mask).filter(|(_, &m)| m).map(|(&l, _)| l).collect();
    cm.update(&masked_preds, &masked_labels);
    let l2_sq = noisy.sub(&tensors.colors).expect("shape").frobenius_sq();
    AttackResult {
        adversarial_colors: noisy,
        l2_sq,
        steps_run: 1,
        converged: false,
        gain_history: Vec::new(),
        metric_history: Vec::new(),
        predictions: preds,
        success_metric: cm.accuracy(),
        attacked_points: mask.iter().filter(|&&m| m).count(),
        restarts: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn noise_matches_l2_budget() {
        let mut rng = StdRng::seed_from_u64(0);
        let orig = Matrix::filled(200, 3, 0.5);
        let mask = vec![true; 200];
        let target = 4.0;
        let noisy = random_color_noise(&orig, &mask, target, &mut rng);
        let achieved = noisy.sub(&orig).unwrap().frobenius_sq();
        assert!((achieved - target).abs() / target < 0.05, "achieved {achieved}");
        assert!(noisy.min().unwrap() >= 0.0 && noisy.max().unwrap() <= 1.0);
    }

    #[test]
    fn noise_respects_mask() {
        let mut rng = StdRng::seed_from_u64(1);
        let orig = Matrix::filled(10, 3, 0.5);
        let mut mask = vec![false; 10];
        mask[3] = true;
        let noisy = random_color_noise(&orig, &mask, 0.1, &mut rng);
        for r in 0..10 {
            for c in 0..3 {
                if r == 3 {
                    continue;
                }
                assert_eq!(noisy[(r, c)], 0.5, "row {r} should be untouched");
            }
        }
    }

    #[test]
    fn zero_budget_is_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let orig = Matrix::filled(5, 3, 0.3);
        let noisy = random_color_noise(&orig, &[true; 5], 0.0, &mut rng);
        assert_eq!(noisy, orig);
    }

    #[test]
    fn clamping_saturated_colors_still_close_to_budget() {
        // Colors at the box corner: half the noise directions clamp away.
        let mut rng = StdRng::seed_from_u64(3);
        let orig = Matrix::filled(300, 3, 1.0);
        let target = 2.0;
        let noisy = random_color_noise(&orig, [true; 300].as_ref(), target, &mut rng);
        let achieved = noisy.sub(&orig).unwrap().frobenius_sq();
        assert!((achieved - target).abs() / target < 0.1, "achieved {achieved}");
    }
}
