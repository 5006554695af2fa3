//! Churn specifications (serializable descriptions of the membership
//! process used by a run).

use serde::{Deserialize, Serialize};

use lagover_sim::churn::{BernoulliChurn, ChurnProcess, NoChurn, Transitions};
use lagover_sim::SimRng;

/// A reproducible churn description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChurnSpec {
    /// No membership dynamics.
    None,
    /// The paper's §5.3 setting: depart w.p. 0.01, rejoin w.p. 0.2.
    Paper,
    /// Custom per-round Bernoulli rates.
    Bernoulli {
        /// Per-round departure probability for online peers.
        p_off: f64,
        /// Per-round rejoin probability for offline peers.
        p_on: f64,
    },
}

/// A spec steps as the process it describes: every variant is
/// memoryless, so the description is the whole state.
impl ChurnProcess for ChurnSpec {
    fn step(&mut self, online: &mut [bool], rng: &mut SimRng) -> Transitions {
        match *self {
            ChurnSpec::None => NoChurn.step(online, rng),
            ChurnSpec::Paper => BernoulliChurn::paper().step(online, rng),
            ChurnSpec::Bernoulli { p_off, p_on } => {
                BernoulliChurn::new(p_off, p_on).step(online, rng)
            }
        }
    }
}

impl ChurnSpec {
    /// Whether the spec describes any membership dynamics at all.
    pub fn is_dynamic(&self) -> bool {
        // Comparison rather than a `matches!` float-literal pattern:
        // float patterns are a hard error in newer editions.
        match *self {
            ChurnSpec::None => false,
            ChurnSpec::Paper => true,
            ChurnSpec::Bernoulli { p_off, .. } => p_off > 0.0,
        }
    }
}

impl std::fmt::Display for ChurnSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnSpec::None => write!(f, "no churn"),
            ChurnSpec::Paper => write!(f, "churn(0.01/0.2)"),
            ChurnSpec::Bernoulli { p_off, p_on } => write!(f, "churn({p_off}/{p_on})"),
        }
    }
}

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};

impl ToJson for ChurnSpec {
    fn to_json(&self) -> Json {
        match self {
            ChurnSpec::None => Json::Str("None".to_string()),
            ChurnSpec::Paper => Json::Str("Paper".to_string()),
            ChurnSpec::Bernoulli { p_off, p_on } => object(vec![
                ("p_off", Json::F64(*p_off)),
                ("p_on", Json::F64(*p_on)),
            ]),
        }
    }
}

impl FromJson for ChurnSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Json::Str(name) = value {
            return match name.as_str() {
                "None" => Ok(ChurnSpec::None),
                "Paper" => Ok(ChurnSpec::Paper),
                other => Err(JsonError(format!("unknown churn spec '{other}'"))),
            };
        }
        Ok(ChurnSpec::Bernoulli {
            p_off: value.get("p_off")?.as_f64()?,
            p_on: value.get("p_on")?.as_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_sim::SimRng;

    #[test]
    fn build_none_is_inert() {
        let mut churn = ChurnSpec::None;
        let mut online = vec![true; 10];
        let t = churn.step(&mut online, &mut SimRng::seed_from(1));
        assert_eq!(t.total(), 0);
        assert!(!ChurnSpec::None.is_dynamic());
    }

    #[test]
    fn paper_spec_is_dynamic() {
        assert!(ChurnSpec::Paper.is_dynamic());
        let mut churn = ChurnSpec::Paper;
        let mut online = vec![true; 5_000];
        let t = churn.step(&mut online, &mut SimRng::seed_from(2));
        // ~1% of 5000 should depart.
        assert!((10..=120).contains(&t.departures), "{}", t.departures);
    }

    #[test]
    fn custom_rates_apply() {
        let mut churn = ChurnSpec::Bernoulli {
            p_off: 1.0,
            p_on: 0.0,
        };
        let mut online = vec![true; 10];
        churn.step(&mut online, &mut SimRng::seed_from(3));
        assert!(online.iter().all(|&o| !o));
    }

    #[test]
    fn zero_departure_bernoulli_is_static() {
        let frozen = ChurnSpec::Bernoulli {
            p_off: 0.0,
            p_on: 0.7,
        };
        assert!(!frozen.is_dynamic());
        let live = ChurnSpec::Bernoulli {
            p_off: 0.01,
            p_on: 0.0,
        };
        assert!(live.is_dynamic());
    }

    #[test]
    fn serde_round_trip() {
        for spec in [
            ChurnSpec::None,
            ChurnSpec::Paper,
            ChurnSpec::Bernoulli {
                p_off: 0.05,
                p_on: 0.5,
            },
        ] {
            let json = lagover_jsonio::to_string(&spec);
            let back: ChurnSpec = lagover_jsonio::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(ChurnSpec::Paper.to_string(), "churn(0.01/0.2)");
        assert_eq!(ChurnSpec::None.to_string(), "no churn");
    }
}
