#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # lagover-workload
//!
//! Workload generators for the LagOver evaluation (§4).
//!
//! The paper characterizes workloads by the peers' *topological
//! constraints* — the joint distribution of latency constraints and
//! fanouts — plus the churn process. Four classes are evaluated
//! (§4.1), all reproduced here, plus the §3.3.1 adversarial family:
//!
//! | Class | Meaning |
//! |---|---|
//! | [`TopologicalConstraint::Tf1`] | *Use full available capacity*: uniform fanout, layer sizes sized so upstream capacity is exactly consumed (3, 9, 27, 81 … for fanout 3) |
//! | [`TopologicalConstraint::Rand`] | Random, uncorrelated latency and fanout |
//! | [`TopologicalConstraint::BiCorr`] | Bimodal fanout (modem 1–2 / broadband 7–8) *correlated* with latency: peers with `l < 3` are also low-fanout — the worst case |
//! | [`TopologicalConstraint::BiUnCorr`] | Bimodal fanout, uncorrelated with latency |
//! | [`TopologicalConstraint::Adversarial`] | The §3.3.1 counter-example family: feasible instances that fail the sufficiency condition and defeat latency-only placement |
//!
//! Except for `Adversarial`, generated populations are *repaired* to
//! satisfy the §3.3 sufficiency condition (the paper: "we implicitly
//! assume that the nodes originally meet the sufficiency condition"),
//! by minimally relaxing latency constraints at overloaded levels.
//!
//! # Example
//!
//! ```
//! use lagover_workload::{TopologicalConstraint, WorkloadSpec};
//!
//! let spec = WorkloadSpec::new(TopologicalConstraint::BiCorr, 120);
//! let population = spec.generate(7).expect("repairable");
//! assert_eq!(population.len(), 120);
//! assert!(lagover_core::check_sufficiency(&population).satisfied);
//! ```

pub mod adversarial;
pub mod churn;
pub mod corruption;
pub mod faults;
pub mod generators;

use std::fmt;

use serde::{Deserialize, Serialize};

use lagover_core::node::Population;

pub use adversarial::adversarial_population;
pub use churn::ChurnSpec;
pub use corruption::CorruptionSpec;
pub use faults::FaultSpec;

/// The §4.1 workload classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologicalConstraint {
    /// Use full available capacity: uniform fanout, exact layer sizes.
    Tf1,
    /// Random uncorrelated latency (1..=10) and fanout (0..=8).
    Rand,
    /// Bimodal fanout correlated with latency (strict peers are weak).
    BiCorr,
    /// Bimodal fanout uncorrelated with latency.
    BiUnCorr,
    /// Zipf-skewed latency demand (extension): most consumers are lax,
    /// a few demand near-real-time delivery — the shape of real
    /// subscriber bases. Fanout uniform 0..=8, latency `1 + floor(Z)`
    /// with `Z` Zipf-like over `1..=10`.
    Zipf {
        /// Skew exponent `s` (>= 0, scaled by 100: `150` means
        /// `s = 1.5`). Stored as an integer to keep the spec `Eq`/
        /// `Hash`-able.
        exponent_x100: u32,
    },
    /// §3.3.1 adversarial family: `chain` strict nodes in a line, one
    /// high-fanout hub, `hub_fanout` zero-fanout leaves.
    Adversarial {
        /// Length of the strict-latency chain prefix.
        chain: u32,
        /// Fanout of the hub (also the number of leaves).
        hub_fanout: u32,
    },
}

impl TopologicalConstraint {
    /// The four paper classes in Figure 3 order.
    pub const PAPER_CLASSES: [TopologicalConstraint; 4] = [
        TopologicalConstraint::Tf1,
        TopologicalConstraint::Rand,
        TopologicalConstraint::BiCorr,
        TopologicalConstraint::BiUnCorr,
    ];
}

impl fmt::Display for TopologicalConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologicalConstraint::Tf1 => write!(f, "Tf1"),
            TopologicalConstraint::Rand => write!(f, "Rand"),
            TopologicalConstraint::BiCorr => write!(f, "BiCorr"),
            TopologicalConstraint::BiUnCorr => write!(f, "BiUnCorr"),
            TopologicalConstraint::Adversarial { chain, hub_fanout } => {
                write!(f, "Adversarial(chain={chain},hub={hub_fanout})")
            }
            TopologicalConstraint::Zipf { exponent_x100 } => {
                write!(f, "Zipf(s={:.2})", *exponent_x100 as f64 / 100.0)
            }
        }
    }
}

/// Why generation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The repair loop could not reach the sufficiency condition within
    /// its iteration budget (pathologically low total capacity).
    CannotSatisfy,
    /// Adversarial parameters are degenerate (zero chain or hub).
    DegenerateAdversarial,
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::CannotSatisfy => {
                write!(f, "could not repair population to sufficiency")
            }
            GenerateError::DegenerateAdversarial => {
                write!(
                    f,
                    "adversarial family requires chain >= 1 and hub_fanout >= 1"
                )
            }
        }
    }
}

impl std::error::Error for GenerateError {}

/// A reproducible workload description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The constraint class.
    pub constraint: TopologicalConstraint,
    /// Number of consumers (ignored by `Adversarial`, whose size is
    /// `chain + 1 + hub_fanout`).
    pub peers: usize,
    /// The source's fanout budget (`f_0`). Defaults to 3, matching the
    /// Tf1 description.
    pub source_fanout: u32,
}

impl WorkloadSpec {
    /// Creates a spec with the default source fanout of 3.
    ///
    /// # Panics
    ///
    /// Panics if `peers == 0`.
    pub fn new(constraint: TopologicalConstraint, peers: usize) -> Self {
        assert!(peers > 0, "need at least one peer");
        WorkloadSpec {
            constraint,
            peers,
            source_fanout: 3,
        }
    }

    /// Builder-style override of the source fanout.
    ///
    /// # Panics
    ///
    /// Panics if `fanout == 0`.
    #[must_use]
    pub fn with_source_fanout(mut self, fanout: u32) -> Self {
        assert!(fanout >= 1, "source fanout must be positive");
        self.source_fanout = fanout;
        self
    }

    /// Generates the population deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// [`GenerateError::CannotSatisfy`] if the sufficiency repair loop
    /// fails; [`GenerateError::DegenerateAdversarial`] for degenerate
    /// adversarial parameters.
    pub fn generate(&self, seed: u64) -> Result<Population, GenerateError> {
        match generators::generate(self, seed)? {
            (population, Some(mut rng)) => generators::repair(population, &mut rng),
            (population, None) => Ok(population),
        }
    }
}

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};

impl ToJson for TopologicalConstraint {
    fn to_json(&self) -> Json {
        match self {
            TopologicalConstraint::Tf1 => Json::Str("Tf1".to_string()),
            TopologicalConstraint::Rand => Json::Str("Rand".to_string()),
            TopologicalConstraint::BiCorr => Json::Str("BiCorr".to_string()),
            TopologicalConstraint::BiUnCorr => Json::Str("BiUnCorr".to_string()),
            TopologicalConstraint::Zipf { exponent_x100 } => object(vec![
                ("class", Json::Str("Zipf".to_string())),
                ("exponent_x100", exponent_x100.to_json()),
            ]),
            TopologicalConstraint::Adversarial { chain, hub_fanout } => object(vec![
                ("class", Json::Str("Adversarial".to_string())),
                ("chain", chain.to_json()),
                ("hub_fanout", hub_fanout.to_json()),
            ]),
        }
    }
}

impl FromJson for TopologicalConstraint {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Json::Str(name) = value {
            return match name.as_str() {
                "Tf1" => Ok(TopologicalConstraint::Tf1),
                "Rand" => Ok(TopologicalConstraint::Rand),
                "BiCorr" => Ok(TopologicalConstraint::BiCorr),
                "BiUnCorr" => Ok(TopologicalConstraint::BiUnCorr),
                other => Err(JsonError(format!("unknown constraint class '{other}'"))),
            };
        }
        match value.get("class")?.as_str()? {
            "Zipf" => Ok(TopologicalConstraint::Zipf {
                exponent_x100: u32::from_json(value.get("exponent_x100")?)?,
            }),
            "Adversarial" => Ok(TopologicalConstraint::Adversarial {
                chain: u32::from_json(value.get("chain")?)?,
                hub_fanout: u32::from_json(value.get("hub_fanout")?)?,
            }),
            other => Err(JsonError(format!("unknown constraint class '{other}'"))),
        }
    }
}

impl ToJson for WorkloadSpec {
    fn to_json(&self) -> Json {
        object(vec![
            ("constraint", self.constraint.to_json()),
            ("peers", self.peers.to_json()),
            ("source_fanout", self.source_fanout.to_json()),
        ])
    }
}

impl FromJson for WorkloadSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let spec = WorkloadSpec {
            constraint: TopologicalConstraint::from_json(value.get("constraint")?)?,
            peers: usize::from_json(value.get("peers")?)?,
            source_fanout: u32::from_json(value.get("source_fanout")?)?,
        };
        if spec.peers == 0 {
            return Err(JsonError("need at least one peer".into()));
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_are_stable() {
        assert_eq!(TopologicalConstraint::Tf1.to_string(), "Tf1");
        assert_eq!(
            TopologicalConstraint::Adversarial {
                chain: 2,
                hub_fanout: 2
            }
            .to_string(),
            "Adversarial(chain=2,hub=2)"
        );
    }

    #[test]
    fn spec_serde_round_trip() {
        let spec = WorkloadSpec::new(TopologicalConstraint::BiCorr, 120).with_source_fanout(5);
        let json = lagover_jsonio::to_string(&spec);
        let back: WorkloadSpec = lagover_jsonio::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn zero_peers_rejected() {
        WorkloadSpec::new(TopologicalConstraint::Rand, 0);
    }

    #[test]
    fn generation_is_deterministic() {
        for class in TopologicalConstraint::PAPER_CLASSES {
            let spec = WorkloadSpec::new(class, 60);
            let a = spec.generate(11).unwrap();
            let b = spec.generate(11).unwrap();
            assert_eq!(a, b, "{class} not deterministic");
            let c = spec.generate(12).unwrap();
            if class != TopologicalConstraint::Tf1 {
                assert_ne!(a, c, "{class} ignores the seed");
            }
        }
    }
}
