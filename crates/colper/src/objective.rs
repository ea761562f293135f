//! [`Objective`]: what the attacker optimizes for, as a first-class
//! value with a stable string id.
//!
//! The objective is the one goal vocabulary of the crate: it lives in
//! [`crate::AttackConfig::objective`], and [`crate::AttackSession`] runs
//! every variant through the same engine. The robustness matrix and the
//! `colperd` service *name* attacks with it — the same string keys a
//! registry, a JSON job spec, and a report row. Besides the paper's two
//! goals it covers the L2-matched noise baseline of Tables 1 and 3,
//! AdvPC-style transfer (arXiv 1912.00461: optimize on a surrogate,
//! penalize with a second network) and boundary-focused perturbation
//! (1908.06062's shape-boundary attacks, adapted to the color-only
//! threat model as a label-boundary mask).
//!
//! | id | objective |
//! |----|-----------|
//! | `non_targeted` | [`Objective::NonTargeted`] |
//! | `targeted(T)` | [`Objective::Targeted`] |
//! | `noise(L2)` | [`Objective::NoiseBaseline`] |
//! | `transfer(GAMMA)` | [`Objective::Transfer`] |
//! | `boundary(K)` | [`Objective::Boundary`] |
//!
//! `Objective::id()` round-trips through [`Objective::parse`].

/// What the attacker wants (Section "Problem Formulation" of the paper,
/// plus the comparison objectives), carried by
/// [`crate::AttackConfig::objective`] and the `colperd` job spec.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Make every attacked point's prediction differ from its ground
    /// truth (Eq. 3 / Eq. 8).
    NonTargeted,
    /// Drive every attacked point's prediction to `target` (Eq. 2 /
    /// Eq. 7) — e.g. board → wall in the paper's indoor experiments.
    Targeted {
        /// The class the attacked points should be predicted as.
        target: usize,
    },
    /// The random-noise baseline of Tables 1 and 3: uniform color noise
    /// matched to a squared-L2 budget ([`crate::random_color_noise`])
    /// instead of an optimized perturbation, evaluated like an attack so
    /// both fill one table row.
    NoiseBaseline {
        /// Squared-L2 budget of the noise.
        l2_sq: f32,
    },
    /// AdvPC-style transferability (arXiv 1912.00461): non-targeted
    /// optimization on the session's (surrogate) model with a second
    /// network's CW hinge added at weight `gamma`, so the perturbation
    /// is not over-fitted to one architecture. Requires a penalty model
    /// attached via [`crate::AttackSession::penalty_model`].
    Transfer {
        /// Weight of the penalty network's hinge relative to the
        /// surrogate's (`γ` in gain = D + λ1·(L + γ·L') + λ2·S).
        gamma: f32,
    },
    /// Boundary-focused perturbation (1908.06062's shape-boundary
    /// attacks under the color-only threat model): non-targeted
    /// optimization restricted to points within `k` nearest neighbors
    /// of a ground-truth label boundary — the regions segmentation
    /// models are least certain about. Intersects with the session's
    /// mask selector.
    Boundary {
        /// Neighborhood size of the boundary test: a point is boundary
        /// when any of its `k` nearest neighbors carries a different
        /// ground-truth label.
        k: usize,
    },
}

impl Objective {
    /// Stable registry id, e.g. `"targeted(4)"`. Round-trips through
    /// [`Objective::parse`].
    pub fn id(&self) -> String {
        match *self {
            Objective::NonTargeted => "non_targeted".to_string(),
            Objective::Targeted { target } => format!("targeted({target})"),
            Objective::NoiseBaseline { l2_sq } => format!("noise({l2_sq})"),
            Objective::Transfer { gamma } => format!("transfer({gamma})"),
            Objective::Boundary { k } => format!("boundary({k})"),
        }
    }

    /// Parses an objective from its stable id. The inverse of
    /// [`Objective::id`].
    pub fn parse(s: &str) -> Result<Objective, String> {
        let s = s.trim();
        let (name, arg) = match s.find('(') {
            Some(open) => {
                let close =
                    s.rfind(')').ok_or_else(|| format!("objective `{s}`: missing closing `)`"))?;
                if close != s.len() - 1 {
                    return Err(format!("objective `{s}`: trailing text after `)`"));
                }
                (&s[..open], Some(s[open + 1..close].trim()))
            }
            None => (s, None),
        };
        let num = |what: &str| -> Result<f32, String> {
            let raw = arg.ok_or_else(|| format!("objective `{name}`: expected ({what})"))?;
            let v: f32 =
                raw.parse().map_err(|_| format!("objective `{name}`: bad number `{raw}`"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("objective `{name}`: {what} must be non-negative"));
            }
            Ok(v)
        };
        let int = |what: &str| -> Result<usize, String> {
            let raw = arg.ok_or_else(|| format!("objective `{name}`: expected ({what})"))?;
            raw.parse().map_err(|_| format!("objective `{name}`: bad integer `{raw}`"))
        };
        match name {
            "non_targeted" => {
                if arg.is_some() {
                    return Err("objective `non_targeted` takes no argument".to_string());
                }
                Ok(Objective::NonTargeted)
            }
            "targeted" => Ok(Objective::Targeted { target: int("target class")? }),
            "noise" => Ok(Objective::NoiseBaseline { l2_sq: num("squared-L2 budget")? }),
            "transfer" => Ok(Objective::Transfer { gamma: num("gamma")? }),
            "boundary" => {
                let k = int("k")?;
                if k == 0 {
                    return Err("objective `boundary`: k must be positive".to_string());
                }
                Ok(Objective::Boundary { k })
            }
            other => Err(format!("unknown objective `{other}`")),
        }
    }

    /// Whether the objective requires a penalty model on the session
    /// ([`crate::AttackSession::penalty_model`]).
    pub fn needs_penalty_model(&self) -> bool {
        matches!(self, Objective::Transfer { .. })
    }

    /// Whether the objective runs the gradient optimization loop
    /// (`false` for the noise baseline, which draws one sample).
    pub fn is_optimized(&self) -> bool {
        !matches!(self, Objective::NoiseBaseline { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for o in [
            Objective::NonTargeted,
            Objective::Targeted { target: 4 },
            Objective::NoiseBaseline { l2_sq: 1.5 },
            Objective::Transfer { gamma: 0.5 },
            Objective::Boundary { k: 6 },
        ] {
            let reparsed = Objective::parse(&o.id()).expect("id should parse");
            assert_eq!(reparsed, o, "{}", o.id());
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "fog",
            "targeted",
            "targeted()",
            "targeted(-1)",
            "noise(-2)",
            "transfer",
            "boundary(0)",
            "non_targeted(3)",
            "noise(1.0)x",
        ] {
            assert!(Objective::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn capability_flags() {
        assert!(Objective::Transfer { gamma: 1.0 }.needs_penalty_model());
        assert!(!Objective::Boundary { k: 4 }.needs_penalty_model());
        assert!(!Objective::NoiseBaseline { l2_sq: 1.0 }.is_optimized());
        assert!(Objective::NonTargeted.is_optimized());
    }
}
