//! The deterministic cost-model profiler.
//!
//! Wall clocks are nondeterministic, so profiles built on them can
//! never be byte-compared across runs — and byte comparison is how
//! this repo audits everything (`results/` regenerated and diffed). The
//! profiler therefore measures *work*, not time: per-phase counts of
//! oracle contacts, pairwise interactions, structural operations, lost
//! messages, and RNG draws. Two runs of the same seed produce the
//! same profile, bit for bit, on any machine. (Host time is measured
//! from outside, by the `benchmark/` package's span recorder.)

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};
use serde::{Deserialize, Serialize};

/// Work performed during some span of a run — the profiler's unit of
/// account.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Work {
    /// Peer actions taken (construction or maintenance steps).
    pub actions: u64,
    /// RNG draws consumed (`SimRng::draws` delta).
    pub rng_draws: u64,
    /// Oracle queries issued.
    pub oracle_queries: u64,
    /// Pairwise interactions performed.
    pub interactions: u64,
    /// Attach operations.
    pub attaches: u64,
    /// Detach operations.
    pub detaches: u64,
    /// Interactions lost in flight.
    pub messages_lost: u64,
}

impl Work {
    /// Every field as a `(name, value)` pair, in the serialization
    /// order — the perf-baseline exporter and the report renderer both
    /// consume this.
    pub fn to_named(&self) -> [(&'static str, u64); 7] {
        [
            ("actions", self.actions),
            ("rng_draws", self.rng_draws),
            ("oracle_queries", self.oracle_queries),
            ("interactions", self.interactions),
            ("attaches", self.attaches),
            ("detaches", self.detaches),
            ("messages_lost", self.messages_lost),
        ]
    }

    /// Field-wise sum.
    pub fn add(&mut self, other: Work) {
        self.actions += other.actions;
        self.rng_draws += other.rng_draws;
        self.oracle_queries += other.oracle_queries;
        self.interactions += other.interactions;
        self.attaches += other.attaches;
        self.detaches += other.detaches;
        self.messages_lost += other.messages_lost;
    }
}

/// Accumulated work for one named phase.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Phase name (e.g. `"construction"`).
    pub name: String,
    /// Total work attributed to the phase.
    pub work: Work,
}

/// Per-phase work accounting for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Profiler {
    phases: Vec<PhaseStats>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    fn phase_slot(&mut self, name: &str) -> &mut PhaseStats {
        if let Some(at) = self.phases.iter().position(|p| p.name == name) {
            return &mut self.phases[at];
        }
        self.phases.push(PhaseStats {
            name: name.to_string(),
            ..Default::default()
        });
        self.phases.last_mut().expect("just pushed")
    }

    /// Attributes `work` to the phase `name`.
    pub fn record(&mut self, name: &str, work: Work) {
        self.phase_slot(name).work.add(work);
    }

    /// The phases, in first-recorded order.
    pub fn phases(&self) -> &[PhaseStats] {
        &self.phases
    }

    /// Stats for the phase `name`, if it was ever recorded.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Total work across all phases.
    pub fn total(&self) -> Work {
        let mut total = Work::default();
        for phase in &self.phases {
            total.add(phase.work);
        }
        total
    }

    /// Flattens the per-phase work counters into `(name, value)` pairs
    /// — `"<phase>.<field>"`, phases in first-recorded order — the
    /// export surface the work-unit baseline (`results/bench.json`)
    /// commits.
    pub fn to_named(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.phases.len() * 7);
        for phase in &self.phases {
            for (field, value) in phase.work.to_named() {
                out.push((format!("{}.{field}", phase.name), value));
            }
        }
        out
    }

    /// Merges another profiler's phases into this one (multi-run
    /// aggregation; phase order follows first sight).
    pub fn merge(&mut self, other: &Profiler) {
        for phase in &other.phases {
            self.phase_slot(&phase.name).work.add(phase.work);
        }
    }

    /// Renders the per-phase table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<14} {:>9} {:>9} {:>8} {:>9} {:>8} {:>8} {:>7}",
            "phase", "actions", "draws", "oracle", "interact", "attach", "detach", "lost"
        );
        for phase in &self.phases {
            let w = &phase.work;
            out.push('\n');
            out.push_str(&format!(
                "{:<14} {:>9} {:>9} {:>8} {:>9} {:>8} {:>8} {:>7}",
                phase.name,
                w.actions,
                w.rng_draws,
                w.oracle_queries,
                w.interactions,
                w.attaches,
                w.detaches,
                w.messages_lost
            ));
        }
        out
    }
}

impl ToJson for Work {
    fn to_json(&self) -> Json {
        object(vec![
            ("actions", self.actions.to_json()),
            ("rng_draws", self.rng_draws.to_json()),
            ("oracle_queries", self.oracle_queries.to_json()),
            ("interactions", self.interactions.to_json()),
            ("attaches", self.attaches.to_json()),
            ("detaches", self.detaches.to_json()),
            ("messages_lost", self.messages_lost.to_json()),
        ])
    }
}

impl FromJson for Work {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Work {
            actions: u64::from_json(value.get("actions")?)?,
            rng_draws: u64::from_json(value.get("rng_draws")?)?,
            oracle_queries: u64::from_json(value.get("oracle_queries")?)?,
            interactions: u64::from_json(value.get("interactions")?)?,
            attaches: u64::from_json(value.get("attaches")?)?,
            detaches: u64::from_json(value.get("detaches")?)?,
            messages_lost: u64::from_json(value.get("messages_lost")?)?,
        })
    }
}

impl ToJson for PhaseStats {
    fn to_json(&self) -> Json {
        object(vec![
            ("name", self.name.to_json()),
            ("work", self.work.to_json()),
        ])
    }
}

impl FromJson for PhaseStats {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(PhaseStats {
            name: String::from_json(value.get("name")?)?,
            work: Work::from_json(value.get("work")?)?,
        })
    }
}

impl ToJson for Profiler {
    fn to_json(&self) -> Json {
        object(vec![(
            "phases",
            Json::Array(self.phases.iter().map(ToJson::to_json).collect()),
        )])
    }
}

impl FromJson for Profiler {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Profiler {
            phases: Vec::from_json(value.get("phases")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(actions: u64, draws: u64) -> Work {
        Work {
            actions,
            rng_draws: draws,
            ..Default::default()
        }
    }

    #[test]
    fn phases_accumulate_in_first_sight_order() {
        let mut profiler = Profiler::new();
        profiler.record("construction", work(1, 2));
        profiler.record("maintenance", work(1, 0));
        profiler.record("construction", work(1, 3));
        assert_eq!(profiler.phases().len(), 2);
        assert_eq!(profiler.phases()[0].name, "construction");
        assert_eq!(profiler.phase("construction").unwrap().work.rng_draws, 5);
        assert_eq!(profiler.total().actions, 3);
    }

    #[test]
    fn merge_sums_matching_phases() {
        let mut a = Profiler::new();
        a.record("schedule", work(0, 10));
        let mut b = Profiler::new();
        b.record("schedule", work(0, 5));
        b.record("churn", work(0, 1));
        a.merge(&b);
        assert_eq!(a.phase("schedule").unwrap().work.rng_draws, 15);
        assert_eq!(a.phase("churn").unwrap().work.rng_draws, 1);
    }

    #[test]
    fn json_round_trip_is_byte_stable_and_wall_free() {
        let mut profiler = Profiler::new();
        profiler.record("construction", work(4, 7));
        let json = lagover_jsonio::to_string(&profiler);
        assert!(!json.contains("wall"), "wall time must stay out of JSON");
        let back: Profiler = lagover_jsonio::from_str(&json).expect("parses");
        assert_eq!(lagover_jsonio::to_string(&back), json);
    }

    #[test]
    fn named_export_flattens_phases_in_first_sight_order() {
        let mut profiler = Profiler::new();
        profiler.record("construction", work(4, 7));
        profiler.record("maintenance", work(1, 0));
        let named = profiler.to_named();
        assert_eq!(named.len(), 14, "7 work fields per phase");
        assert_eq!(named[0], ("construction.actions".to_string(), 4));
        assert_eq!(named[1], ("construction.rng_draws".to_string(), 7));
        assert_eq!(named[7], ("maintenance.actions".to_string(), 1));
        let total = profiler.total();
        assert_eq!(total.to_named()[0], ("actions", 5));
    }

    #[test]
    fn render_lists_every_phase() {
        let mut profiler = Profiler::new();
        profiler.record("construction", work(1, 1));
        profiler.record("detection", work(0, 0));
        let text = profiler.render();
        assert!(text.contains("construction"));
        assert!(text.contains("detection"));
    }
}
