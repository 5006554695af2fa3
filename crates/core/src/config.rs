//! Construction configuration: algorithm, oracle, source mode, timers.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::oracle::OracleKind;

/// Which LagOver construction algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// §3.1 — order the tree strictly by latency constraint
    /// (`l_parent <= l_child` along every edge).
    Greedy,
    /// §3.4, Algorithm 2 — jointly optimize latency and capacity,
    /// preferring high-fanout parents whenever no latency constraint is
    /// violated.
    Hybrid,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Algorithm::Greedy => "Greedy",
            Algorithm::Hybrid => "Hybrid",
        })
    }
}

/// Whether the source only serves pulls (the RSS case the paper
/// focuses on, §2.1.2) or can push to its direct children (Algorithm 2
/// lines 29–33, kept as an extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SourceMode {
    /// Pull-only source: direct children with the strictest latency
    /// constraints are preferred (displacement by latency).
    Pull,
    /// Push-capable source: any node may sit at depth 1, so displacement
    /// at the source is decided by fanout.
    Push,
}

impl fmt::Display for SourceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SourceMode::Pull => "pull",
            SourceMode::Push => "push",
        })
    }
}

/// Tunable parameters of a construction run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstructionConfig {
    /// The construction algorithm.
    pub algorithm: Algorithm,
    /// Which reference oracle brokers interactions.
    pub oracle: OracleKind,
    /// Pull-only (paper default) or push-capable source.
    pub source_mode: SourceMode,
    /// A parent-less peer contacts the source directly after this many
    /// fruitless rounds (Algorithm 2's `Timeout`).
    pub timeout_rounds: u32,
    /// Rounds a hybrid-built node tolerates `DelayAt > l` before
    /// discarding its parent (§3.4's damped maintenance; the greedy
    /// algorithm discards immediately per the §3.2 lemma).
    pub maintenance_timeout: u32,
    /// Hard cap on construction rounds for convergence runs.
    pub max_rounds: u64,
}

impl ConstructionConfig {
    /// Creates a configuration with the defaults used throughout the
    /// evaluation: pull source, timeout 4, maintenance timeout 3,
    /// 20 000-round cap.
    pub fn new(algorithm: Algorithm, oracle: OracleKind) -> Self {
        ConstructionConfig {
            algorithm,
            oracle,
            source_mode: SourceMode::Pull,
            timeout_rounds: 4,
            maintenance_timeout: 3,
            max_rounds: 20_000,
        }
    }

    /// Builder-style override of the source mode.
    #[must_use]
    pub fn with_source_mode(mut self, mode: SourceMode) -> Self {
        self.source_mode = mode;
        self
    }

    /// Builder-style override of the source-contact timeout.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` (a zero timeout would stampede the source
    /// every round).
    #[must_use]
    pub fn with_timeout_rounds(mut self, rounds: u32) -> Self {
        assert!(rounds >= 1, "timeout must be at least one round");
        self.timeout_rounds = rounds;
        self
    }

    /// Builder-style override of the maintenance damping timeout.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    #[must_use]
    pub fn with_maintenance_timeout(mut self, rounds: u32) -> Self {
        assert!(
            rounds >= 1,
            "maintenance timeout must be at least one round"
        );
        self.maintenance_timeout = rounds;
        self
    }

    /// Builder-style override of the round cap.
    #[must_use]
    pub fn with_max_rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = rounds;
        self
    }
}

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};

impl ToJson for Algorithm {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for Algorithm {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str()? {
            "Greedy" => Ok(Algorithm::Greedy),
            "Hybrid" => Ok(Algorithm::Hybrid),
            other => Err(JsonError(format!("unknown algorithm '{other}'"))),
        }
    }
}

impl ToJson for SourceMode {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for SourceMode {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str()? {
            "pull" => Ok(SourceMode::Pull),
            "push" => Ok(SourceMode::Push),
            other => Err(JsonError(format!("unknown source mode '{other}'"))),
        }
    }
}

impl ToJson for ConstructionConfig {
    fn to_json(&self) -> Json {
        object(vec![
            ("algorithm", self.algorithm.to_json()),
            ("oracle", self.oracle.to_json()),
            ("source_mode", self.source_mode.to_json()),
            ("timeout_rounds", self.timeout_rounds.to_json()),
            ("maintenance_timeout", self.maintenance_timeout.to_json()),
            ("max_rounds", self.max_rounds.to_json()),
        ])
    }
}

impl FromJson for ConstructionConfig {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ConstructionConfig {
            algorithm: Algorithm::from_json(value.get("algorithm")?)?,
            oracle: crate::OracleKind::from_json(value.get("oracle")?)?,
            source_mode: SourceMode::from_json(value.get("source_mode")?)?,
            timeout_rounds: u32::from_json(value.get("timeout_rounds")?)?,
            maintenance_timeout: u32::from_json(value.get("maintenance_timeout")?)?,
            max_rounds: u64::from_json(value.get("max_rounds")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_documentation() {
        let c = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay);
        assert_eq!(c.source_mode, SourceMode::Pull);
        assert_eq!(c.timeout_rounds, 4);
        assert_eq!(c.maintenance_timeout, 3);
        assert_eq!(c.max_rounds, 20_000);
    }

    #[test]
    fn builders_override() {
        let c = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::Random)
            .with_source_mode(SourceMode::Push)
            .with_timeout_rounds(7)
            .with_maintenance_timeout(2)
            .with_max_rounds(100);
        assert_eq!(c.source_mode, SourceMode::Push);
        assert_eq!(c.timeout_rounds, 7);
        assert_eq!(c.maintenance_timeout, 2);
        assert_eq!(c.max_rounds, 100);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_timeout_rejected() {
        let _ =
            ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random).with_timeout_rounds(0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::Greedy.to_string(), "Greedy");
        assert_eq!(Algorithm::Hybrid.to_string(), "Hybrid");
        assert_eq!(SourceMode::Pull.to_string(), "pull");
        assert_eq!(SourceMode::Push.to_string(), "push");
    }
}
