//! The [`SegmentationModel`] trait and inference helpers.

use crate::{bind_input, bind_input_planned, CloudTensors, ColorBinding, GeometryPlan, ModelInput};
use colper_autodiff::Var;
use colper_geom::Point3;
use colper_nn::{Forward, ParamSet};
use colper_tensor::Matrix;
use rand::rngs::StdRng;

/// A point-cloud semantic-segmentation network.
///
/// Implementations are pure with respect to the session: `forward`
/// records operations onto `session.tape` and returns the `[N, classes]`
/// logits variable. Parameter gradients appear when the session is in
/// training mode; input gradients appear whenever the caller bound an
/// input as a leaf (the attack's color variable).
///
/// `Sync` is a supertrait so a shared `&M` can drive concurrent forward
/// passes on the [`colper_runtime`] worker pool (batched attacks, parallel
/// gradient samples); model state is read-only during inference.
pub trait SegmentationModel: Sync {
    /// Short human-readable model name (`"pointnet++"`, `"resgcn-28"`, …).
    fn name(&self) -> &str;

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// The model's parameter store.
    fn params(&self) -> &ParamSet;

    /// Mutable access to the parameter store (training, weight loading).
    fn params_mut(&mut self) -> &mut ParamSet;

    /// Records the forward pass, returning per-point logits
    /// `[N, num_classes]`.
    ///
    /// `rng` drives dropout (training) and any stochastic pooling the
    /// architecture uses (RandLA-Net's random sampling).
    fn forward(&self, session: &mut Forward<'_>, input: &ModelInput<'_>, rng: &mut StdRng) -> Var;

    /// Whether an evaluation-mode forward pass is a pure function of its
    /// input — recording the identical op stream and consuming no
    /// randomness every time.
    ///
    /// Callers that evaluate a model repeatedly read it to tell whether
    /// two predictions of the same cloud can differ. RandLA-Net overrides
    /// this to `false`: its random point sampling draws from `rng` even in
    /// evaluation mode, so each pass sees another sampling.
    fn deterministic_eval(&self) -> bool {
        true
    }

    /// Pre-computes every coordinate-only structure the forward pass
    /// needs for `coords` (FPS centroids, ball queries, k-NN graphs, …).
    ///
    /// The returned plan is valid for any number of forward passes over
    /// the same coordinates — attach it via
    /// [`crate::bind_input_planned`] or [`ModelInput::plan`]. Planned
    /// and plan-free passes produce bit-identical logits.
    fn plan(&self, coords: &[Point3]) -> GeometryPlan;
}

/// Runs an evaluation-mode forward pass and returns the logits matrix.
pub fn logits_of<M: SegmentationModel + ?Sized>(
    model: &M,
    tensors: &CloudTensors,
    rng: &mut StdRng,
) -> Matrix {
    let mut session = Forward::new(model.params(), false);
    let input = bind_input(&mut session.tape, tensors, ColorBinding::Constant);
    let logits = model.forward(&mut session, &input, rng);
    session.tape.value(logits).clone()
}

/// Runs an evaluation-mode forward pass and returns the predicted label
/// per point.
pub fn predict<M: SegmentationModel + ?Sized>(
    model: &M,
    tensors: &CloudTensors,
    rng: &mut StdRng,
) -> Vec<usize> {
    logits_of(model, tensors, rng).argmax_rows()
}

/// Point accuracy of the model on one cloud.
pub fn evaluate_on<M: SegmentationModel + ?Sized>(
    model: &M,
    tensors: &CloudTensors,
    rng: &mut StdRng,
) -> f32 {
    let preds = predict(model, tensors, rng);
    if preds.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(&tensors.labels).filter(|(p, l)| p == l).count();
    correct as f32 / preds.len() as f32
}

/// [`logits_of`] with a pre-computed geometry plan.
pub fn logits_of_planned<M: SegmentationModel + ?Sized>(
    model: &M,
    tensors: &CloudTensors,
    plan: &GeometryPlan,
    rng: &mut StdRng,
) -> Matrix {
    let mut session = Forward::new(model.params(), false);
    let input = bind_input_planned(&mut session.tape, tensors, ColorBinding::Constant, plan);
    let logits = model.forward(&mut session, &input, rng);
    session.tape.value(logits).clone()
}

/// [`predict`] with a pre-computed geometry plan.
pub fn predict_planned<M: SegmentationModel + ?Sized>(
    model: &M,
    tensors: &CloudTensors,
    plan: &GeometryPlan,
    rng: &mut StdRng,
) -> Vec<usize> {
    logits_of_planned(model, tensors, plan, rng).argmax_rows()
}

/// [`evaluate_on`] with a pre-computed geometry plan.
pub fn evaluate_on_planned<M: SegmentationModel + ?Sized>(
    model: &M,
    tensors: &CloudTensors,
    plan: &GeometryPlan,
    rng: &mut StdRng,
) -> f32 {
    let preds = predict_planned(model, tensors, plan, rng);
    if preds.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(&tensors.labels).filter(|(p, l)| p == l).count();
    correct as f32 / preds.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PointNet2, PointNet2Config};
    use colper_scene::{IndoorSceneConfig, SceneGenerator};
    use rand::SeedableRng;

    #[test]
    fn helpers_agree_on_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let cloud = SceneGenerator::indoor(IndoorSceneConfig::with_points(128)).generate(3);
        let t = CloudTensors::from_cloud(&cloud);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let logits = logits_of(&model, &t, &mut rng);
        assert_eq!(logits.shape(), (128, 13));
        let preds = predict(&model, &t, &mut rng);
        assert_eq!(preds.len(), 128);
        assert!(preds.iter().all(|&p| p < 13));
        let acc = evaluate_on(&model, &t, &mut rng);
        assert!((0.0..=1.0).contains(&acc));
    }
}
