//! The engine's cumulative event counters.
//!
//! Moved here from `lagover-core` (which re-exports it unchanged) so
//! the whole counter surface lives behind the observability facade:
//! the `xtask analyze` `obs-bypass` rule keeps new ad-hoc counter structs
//! from growing back inside the engine.

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};
use serde::{Deserialize, Serialize};

/// Event counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineCounters {
    /// Pairwise interactions performed.
    pub interactions: u64,
    /// Oracle queries issued.
    pub oracle_queries: u64,
    /// Oracle queries that found no candidate (the peer waited).
    pub oracle_misses: u64,
    /// Successful attach operations.
    pub attaches: u64,
    /// Detach operations (all causes).
    pub detaches: u64,
    /// Displacement / replace-and-adopt reconfigurations.
    pub displacements: u64,
    /// Direct contacts with the source (timeout or referral).
    pub source_contacts: u64,
    /// Detaches triggered by the maintenance rule.
    pub maintenance_detaches: u64,
    /// Peers lost to churn over the run.
    pub churn_departures: u64,
    /// Peers (re)joining over the run.
    pub churn_arrivals: u64,
    /// Crash-stop failures injected over the run.
    pub crashes: u64,
    /// Children that declared their parent crashed after
    /// `DETECTION_TIMEOUT` silent rounds.
    pub failure_detections: u64,
    /// Interactions lost in flight by the fault plan.
    pub messages_lost: u64,
    /// Oracle queries that hit a blackout window.
    pub oracle_outages: u64,
    /// Own-actions spent waiting out a retry backoff.
    pub backoff_rounds: u64,
    /// Snapshot corruptions applied (one per mutated peer state).
    pub corruptions_injected: u64,
    /// Local self-stabilization checks that found cached chain state
    /// inconsistent with a neighbour.
    pub inconsistencies_detected: u64,
    /// Repairs performed by the stabilize rule.
    pub repair_actions: u64,
}

impl EngineCounters {
    /// Every counter as a `(name, value)` pair, in the serialization
    /// order — the registry's absorption path and the report renderer
    /// both consume this.
    pub fn to_named(&self) -> [(&'static str, u64); 18] {
        [
            ("interactions", self.interactions),
            ("oracle_queries", self.oracle_queries),
            ("oracle_misses", self.oracle_misses),
            ("attaches", self.attaches),
            ("detaches", self.detaches),
            ("displacements", self.displacements),
            ("source_contacts", self.source_contacts),
            ("maintenance_detaches", self.maintenance_detaches),
            ("churn_departures", self.churn_departures),
            ("churn_arrivals", self.churn_arrivals),
            ("crashes", self.crashes),
            ("failure_detections", self.failure_detections),
            ("messages_lost", self.messages_lost),
            ("oracle_outages", self.oracle_outages),
            ("backoff_rounds", self.backoff_rounds),
            ("corruptions_injected", self.corruptions_injected),
            ("inconsistencies_detected", self.inconsistencies_detected),
            ("repair_actions", self.repair_actions),
        ]
    }

    /// Field-wise sum (used when aggregating multi-run reports).
    pub fn merge(&mut self, other: &EngineCounters) {
        self.interactions += other.interactions;
        self.oracle_queries += other.oracle_queries;
        self.oracle_misses += other.oracle_misses;
        self.attaches += other.attaches;
        self.detaches += other.detaches;
        self.displacements += other.displacements;
        self.source_contacts += other.source_contacts;
        self.maintenance_detaches += other.maintenance_detaches;
        self.churn_departures += other.churn_departures;
        self.churn_arrivals += other.churn_arrivals;
        self.crashes += other.crashes;
        self.failure_detections += other.failure_detections;
        self.messages_lost += other.messages_lost;
        self.oracle_outages += other.oracle_outages;
        self.backoff_rounds += other.backoff_rounds;
        self.corruptions_injected += other.corruptions_injected;
        self.inconsistencies_detected += other.inconsistencies_detected;
        self.repair_actions += other.repair_actions;
    }
}

impl ToJson for EngineCounters {
    fn to_json(&self) -> Json {
        object(
            self.to_named()
                .into_iter()
                .map(|(name, value)| (name, value.to_json()))
                .collect(),
        )
    }
}

impl FromJson for EngineCounters {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(EngineCounters {
            interactions: u64::from_json(value.get("interactions")?)?,
            oracle_queries: u64::from_json(value.get("oracle_queries")?)?,
            oracle_misses: u64::from_json(value.get("oracle_misses")?)?,
            attaches: u64::from_json(value.get("attaches")?)?,
            detaches: u64::from_json(value.get("detaches")?)?,
            displacements: u64::from_json(value.get("displacements")?)?,
            source_contacts: u64::from_json(value.get("source_contacts")?)?,
            maintenance_detaches: u64::from_json(value.get("maintenance_detaches")?)?,
            churn_departures: u64::from_json(value.get("churn_departures")?)?,
            churn_arrivals: u64::from_json(value.get("churn_arrivals")?)?,
            crashes: u64::from_json(value.get("crashes")?)?,
            failure_detections: u64::from_json(value.get("failure_detections")?)?,
            messages_lost: u64::from_json(value.get("messages_lost")?)?,
            oracle_outages: u64::from_json(value.get("oracle_outages")?)?,
            backoff_rounds: u64::from_json(value.get("backoff_rounds")?)?,
            corruptions_injected: u64::from_json(value.get("corruptions_injected")?)?,
            inconsistencies_detected: u64::from_json(value.get("inconsistencies_detected")?)?,
            repair_actions: u64::from_json(value.get("repair_actions")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_view_matches_serialization_order() {
        let counters = EngineCounters {
            interactions: 1,
            oracle_queries: 2,
            ..Default::default()
        };
        let json = counters.to_json();
        for (name, value) in counters.to_named() {
            assert_eq!(
                u64::from_json(json.get(name).expect("key present")).unwrap(),
                value
            );
        }
    }

    #[test]
    fn merge_is_field_wise_addition() {
        let mut a = EngineCounters {
            attaches: 3,
            crashes: 1,
            ..Default::default()
        };
        let b = EngineCounters {
            attaches: 4,
            backoff_rounds: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.attaches, 7);
        assert_eq!(a.crashes, 1);
        assert_eq!(a.backoff_rounds, 2);
    }
}
