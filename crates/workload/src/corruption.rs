//! Corruption specifications (serializable descriptions of the
//! adversarial snapshot mutation a run injects), mirroring
//! [`crate::ChurnSpec`] for the state-corruption axis.

use serde::{Deserialize, Serialize};

use lagover_sim::{CorruptionClass, CorruptionPlan};

/// A reproducible corruption description.
///
/// Like [`crate::ChurnSpec`], the spec is declarative: experiments
/// store it in their parameter block and lower it to a concrete
/// [`CorruptionPlan`] with [`CorruptionSpec::plan`] when the run
/// starts. The plan's own seed is derived from the run seed, so the
/// same spec corrupts different states in different runs while staying
/// fully reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CorruptionSpec {
    /// No corruption at all; lowers to an empty plan, which the runner
    /// applies as a strict no-op.
    None,
    /// One corruption class at the given severity (fraction of the
    /// population targeted).
    Single {
        /// The corruption class to inject.
        class: CorruptionClass,
        /// Fraction of peers targeted per class.
        severity: f64,
    },
    /// Every corruption class at once, each at the given severity —
    /// the adversary's best shot.
    All {
        /// Fraction of peers targeted per class.
        severity: f64,
    },
}

impl CorruptionSpec {
    /// Lowers the spec to a concrete plan for one run.
    pub fn plan(&self, seed: u64) -> CorruptionPlan {
        let plan = CorruptionPlan::new(seed ^ 0x000C_022F_F7E0);
        match *self {
            CorruptionSpec::None => plan,
            CorruptionSpec::Single { class, severity } => {
                plan.with_class(class).with_severity(severity)
            }
            CorruptionSpec::All { severity } => plan.with_all_classes().with_severity(severity),
        }
    }

    /// Whether the spec injects any corruption at all.
    pub fn is_active(&self) -> bool {
        match *self {
            CorruptionSpec::None => false,
            CorruptionSpec::Single { severity, .. } | CorruptionSpec::All { severity } => {
                severity > 0.0
            }
        }
    }
}

impl std::fmt::Display for CorruptionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorruptionSpec::None => write!(f, "no corruption"),
            CorruptionSpec::Single { class, severity } => {
                write!(f, "corrupt({class},severity={severity})")
            }
            CorruptionSpec::All { severity } => write!(f, "corrupt(all,severity={severity})"),
        }
    }
}

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};

impl ToJson for CorruptionSpec {
    fn to_json(&self) -> Json {
        match self {
            CorruptionSpec::None => Json::Str("None".to_string()),
            CorruptionSpec::Single { class, severity } => object(vec![
                ("class", class.to_json()),
                ("severity", Json::F64(*severity)),
            ]),
            CorruptionSpec::All { severity } => object(vec![("severity", Json::F64(*severity))]),
        }
    }
}

impl FromJson for CorruptionSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Json::Str(name) = value {
            return match name.as_str() {
                "None" => Ok(CorruptionSpec::None),
                other => Err(JsonError(format!("unknown corruption spec '{other}'"))),
            };
        }
        let severity = value.get("severity")?.as_f64()?;
        if let Ok(class) = value.get("class") {
            return Ok(CorruptionSpec::Single {
                class: CorruptionClass::from_json(class)?,
                severity,
            });
        }
        Ok(CorruptionSpec::All { severity })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        assert!(!CorruptionSpec::None.is_active());
        assert!(CorruptionSpec::None.plan(7).is_empty());
        assert!(!CorruptionSpec::All { severity: 0.0 }.is_active());
    }

    #[test]
    fn single_lowers_to_a_one_class_plan() {
        let spec = CorruptionSpec::Single {
            class: CorruptionClass::ParentCycle,
            severity: 0.25,
        };
        assert!(spec.is_active());
        let plan = spec.plan(7);
        assert_eq!(plan.classes(), &[CorruptionClass::ParentCycle]);
        assert_eq!(plan.severity(), 0.25);
    }

    #[test]
    fn all_lowers_to_every_class() {
        let plan = CorruptionSpec::All { severity: 0.4 }.plan(7);
        assert_eq!(plan.classes(), &CorruptionClass::ALL);
        assert_eq!(plan.severity(), 0.4);
    }

    #[test]
    fn plan_seed_follows_the_run_seed() {
        let spec = CorruptionSpec::All { severity: 0.4 };
        assert_ne!(spec.plan(1).seed(), spec.plan(2).seed());
        assert_eq!(spec.plan(1), spec.plan(1));
    }

    #[test]
    fn serde_round_trip() {
        for spec in [
            CorruptionSpec::None,
            CorruptionSpec::Single {
                class: CorruptionClass::ForgedCache,
                severity: 0.15,
            },
            CorruptionSpec::All { severity: 0.4 },
        ] {
            let json = lagover_jsonio::to_string(&spec);
            let back: CorruptionSpec = lagover_jsonio::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(CorruptionSpec::None.to_string(), "no corruption");
        assert_eq!(
            CorruptionSpec::All { severity: 0.4 }.to_string(),
            "corrupt(all,severity=0.4)"
        );
    }
}
