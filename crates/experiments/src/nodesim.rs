//! Node-runtime cross-validation (extension, experiment E18).
//!
//! Every other experiment trusts the simulator. This one checks the
//! trust is mutual: the `lagover-node` in-process mesh — n replicated
//! state machines exchanging wire tokens, each journaling only the
//! events it owns — must merge to the *byte-identical* journal the
//! single-process simulator twin (`Run::perturb` on the round clock)
//! produces, for both fig2-style construction and
//! E15-style crash recovery. The merged journal is
//! embedded in the report so the committed `results/nodesim.json`
//! pins the cross-validation output itself.

use serde::{Deserialize, Serialize};

use lagover_core::{Algorithm, ConstructionConfig, OracleKind};
use lagover_jsonio::to_string;
use lagover_node::{run_mesh, twin, Scenario, ScenarioSpec};
use lagover_obs::Journal;
use lagover_workload::TopologicalConstraint;

use crate::table::TextTable;
use crate::{satisfiable_population, Params};

/// Shared journal ring capacity — small enough that the embedded
/// journals keep the report readable, large enough that quick-scale
/// runs never wrap.
pub const JOURNAL_CAPACITY: usize = 2_048;

/// One scenario's cross-validation outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodesimRow {
    /// "construction" or "recovery".
    pub scenario: String,
    /// Seed of the run.
    pub seed: u64,
    /// Global actions executed (identical on both sides when
    /// `byte_identical` holds).
    pub actions: u64,
    /// Whether the run finished (converged, and for recovery healed)
    /// before the round cap.
    pub finished: bool,
    /// The PR's acceptance property: the merged mesh journal serialized
    /// to exactly the twin's bytes.
    pub byte_identical: bool,
    /// The merged mesh journal.
    pub journal: Journal,
}

/// The E18 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodesimReport {
    /// Parameters used.
    pub params: Params,
    /// Transport under test.
    pub transport: String,
    /// Journal ring capacity used on both sides.
    pub journal_capacity: usize,
    /// One row per scenario.
    pub rows: Vec<NodesimRow>,
}

impl NodesimReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "scenario".into(),
            "actions".into(),
            "finished".into(),
            "byte-identical".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.scenario.clone(),
                r.actions.to_string(),
                r.finished.to_string(),
                r.byte_identical.to_string(),
            ]);
        }
        format!(
            "nodesim — {} transport vs simulator twin (journal capacity {})\n{}",
            self.transport,
            self.journal_capacity,
            t.render()
        )
    }

    /// Whether every scenario matched its twin.
    pub fn all_byte_identical(&self) -> bool {
        self.rows.iter().all(|r| r.byte_identical)
    }
}

/// Runs construction and recovery through the mesh and diffs each
/// merged journal against its simulator twin.
pub fn run(params: &Params) -> NodesimReport {
    let class = TopologicalConstraint::Rand;
    let max_time = params.max_rounds as f64;
    let crash_fraction = 0.25;
    let mut rows = Vec::new();
    for (si, scenario) in [
        Scenario::Construction,
        Scenario::Recovery { crash_fraction },
    ]
    .into_iter()
    .enumerate()
    {
        let seed = params.run_seed(1_200 + si as u64, 0);
        let population = satisfiable_population(class, params.peers, seed);
        let spec = ScenarioSpec {
            scenario,
            config: ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
                .with_max_rounds(params.max_rounds),
            max_time,
            journal_capacity: JOURNAL_CAPACITY,
        };
        let mesh = run_mesh(&population, &spec, seed).expect("mesh completes");
        let twin_journal = twin(&population, &spec, seed).journal;
        rows.push(NodesimRow {
            scenario: scenario.kind().into(),
            seed,
            actions: mesh.merged.report.actions,
            finished: mesh.merged.finished(),
            byte_identical: to_string(&mesh.merged.journal) == to_string(&twin_journal),
            journal: mesh.merged.journal.clone(),
        });
    }
    NodesimReport {
        params: *params,
        transport: "mesh".into(),
        journal_capacity: JOURNAL_CAPACITY,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_matches_the_twin_on_both_scenarios() {
        let report = run(&Params::quick());
        assert_eq!(report.rows.len(), 2);
        assert!(
            report.all_byte_identical(),
            "mesh journals diverged from the simulator twin"
        );
        for row in &report.rows {
            assert!(row.actions > 0, "{}: no actions recorded", row.scenario);
            assert!(!row.journal.is_empty(), "{}: empty journal", row.scenario);
        }
        assert!(report.render().contains("byte-identical"));
    }
}
