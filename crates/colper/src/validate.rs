//! Input validation at the session boundary.
//!
//! The optimizer assumes finite coordinates and colors in `[0, 1]` — the
//! tanh reparameterization (Eq. 5) maps colors through `atanh`, so an
//! out-of-range or non-finite channel silently poisons every gradient
//! after it. [`validate_clouds`] front-loads that check into a typed
//! error the service layer can surface as a client fault instead of a
//! garbage result.

use colper_models::CloudTensors;
use std::fmt;

/// A rejected attack request: the input violates the session contract.
///
/// Every variant pinpoints the offending cloud (and point, where
/// applicable) so a service client can fix its payload.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The batch holds no clouds.
    EmptyBatch,
    /// A single-cloud attachment was combined with a batch of another
    /// size: a pre-built [`crate::AttackPlan`] caches exactly one cloud's
    /// geometry, and a penalty view
    /// ([`crate::AttackSession::penalty_view`]) is one cloud's view.
    NeedsSingleCloud {
        /// The attachment: `"plan"` or `"penalty view"`.
        attachment: &'static str,
        /// Number of clouds in the rejected batch.
        clouds: usize,
    },
    /// A coordinate is NaN or infinite.
    NonFiniteCoordinate {
        /// Cloud index within the batch.
        cloud: usize,
        /// Point index within the cloud.
        point: usize,
        /// Axis (0 = x, 1 = y, 2 = z).
        axis: usize,
        /// The offending value.
        value: f32,
    },
    /// A color channel is outside `[0, 1]` (NaN included).
    ColorOutOfRange {
        /// Cloud index within the batch.
        cloud: usize,
        /// Point index within the cloud.
        point: usize,
        /// Channel (0 = r, 1 = g, 2 = b).
        channel: usize,
        /// The offending value.
        value: f32,
    },
    /// A ground-truth label is not below the model's class count.
    LabelOutOfRange {
        /// Cloud index within the batch.
        cloud: usize,
        /// Point index within the cloud.
        point: usize,
        /// The offending label.
        label: usize,
        /// The model's class count.
        classes: usize,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyBatch => write!(f, "attack session: no clouds"),
            Self::NeedsSingleCloud { attachment, clouds } => write!(
                f,
                "attack session: an attached {attachment} applies to exactly one cloud, \
                 got {clouds}"
            ),
            Self::NonFiniteCoordinate { cloud, point, axis, value } => write!(
                f,
                "attack session: cloud {cloud} point {point} axis {axis} \
                 has non-finite coordinate {value}"
            ),
            Self::ColorOutOfRange { cloud, point, channel, value } => write!(
                f,
                "attack session: cloud {cloud} point {point} channel {channel} \
                 has color {value} outside [0, 1]"
            ),
            Self::LabelOutOfRange { cloud, point, label, classes } => write!(
                f,
                "attack session: cloud {cloud} point {point} has label {label} \
                 but the model has {classes} classes"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// Checks a batch against the session contract: non-empty, finite
/// coordinates, colors in `[0, 1]`, labels below `classes`.
pub fn validate_clouds(clouds: &[CloudTensors], classes: usize) -> Result<(), SessionError> {
    if clouds.is_empty() {
        return Err(SessionError::EmptyBatch);
    }
    for (cloud, t) in clouds.iter().enumerate() {
        for (point, p) in t.coords.iter().enumerate() {
            for (axis, v) in [p.x, p.y, p.z].into_iter().enumerate() {
                if !v.is_finite() {
                    return Err(SessionError::NonFiniteCoordinate { cloud, point, axis, value: v });
                }
            }
        }
        let colors = t.colors.as_slice();
        for (i, &v) in colors.iter().enumerate() {
            // NaN fails both comparisons and is rejected here too.
            if !(0.0..=1.0).contains(&v) {
                return Err(SessionError::ColorOutOfRange {
                    cloud,
                    point: i / 3,
                    channel: i % 3,
                    value: v,
                });
            }
        }
        for (point, &label) in t.labels.iter().enumerate() {
            if label >= classes {
                return Err(SessionError::LabelOutOfRange { cloud, point, label, classes });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use colper_scene::{normalize, IndoorSceneConfig, SceneGenerator};

    fn cloud(seed: u64) -> CloudTensors {
        let c = SceneGenerator::indoor(IndoorSceneConfig::with_points(64)).generate(seed);
        CloudTensors::from_cloud(&normalize::pointnet_view(&c))
    }

    #[test]
    fn clean_cloud_passes() {
        assert_eq!(validate_clouds(&[cloud(1)], 13), Ok(()));
    }

    #[test]
    fn empty_batch_rejected() {
        assert_eq!(validate_clouds(&[], 13), Err(SessionError::EmptyBatch));
    }

    #[test]
    fn nan_coordinate_rejected_with_location() {
        let mut t = cloud(2);
        t.coords[7].y = f32::NAN;
        let err = validate_clouds(&[t], 13).unwrap_err();
        match err {
            SessionError::NonFiniteCoordinate { cloud: 0, point: 7, axis: 1, value } => {
                assert!(value.is_nan());
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn infinite_coordinate_rejected() {
        let mut t = cloud(3);
        t.coords[0].z = f32::INFINITY;
        assert!(matches!(
            validate_clouds(&[t], 13),
            Err(SessionError::NonFiniteCoordinate { cloud: 0, point: 0, axis: 2, .. })
        ));
    }

    #[test]
    fn color_out_of_range_rejected() {
        let mut t = cloud(4);
        let idx = 5 * 3 + 2;
        t.colors.as_mut_slice()[idx] = 1.5;
        assert!(matches!(
            validate_clouds(&[t], 13),
            Err(SessionError::ColorOutOfRange { cloud: 0, point: 5, channel: 2, value }) if value == 1.5
        ));
    }

    #[test]
    fn nan_color_rejected() {
        let mut t = cloud(5);
        t.colors.as_mut_slice()[0] = f32::NAN;
        assert!(matches!(
            validate_clouds(&[t], 13),
            Err(SessionError::ColorOutOfRange { cloud: 0, point: 0, channel: 0, .. })
        ));
    }

    #[test]
    fn label_out_of_range_rejected() {
        let mut t = cloud(6);
        t.labels[3] = 99;
        assert_eq!(
            validate_clouds(&[t], 13),
            Err(SessionError::LabelOutOfRange { cloud: 0, point: 3, label: 99, classes: 13 })
        );
    }

    #[test]
    fn error_in_second_cloud_is_attributed_to_it() {
        let ok = cloud(7);
        let mut bad = cloud(8);
        bad.coords[1].x = f32::NAN;
        assert!(matches!(
            validate_clouds(&[ok, bad], 13),
            Err(SessionError::NonFiniteCoordinate { cloud: 1, point: 1, axis: 0, .. })
        ));
    }
}
